#!/usr/bin/env python3
"""Short run of every benchmark workload, checking the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of the source tree. Asserts that:
  - BENCHMARK.json agrees with perfbench/spec.json;
  - each workload, untraced and traced, exits 0 with every output check
    passing and prints every metric it promises by name with its unit;
  - the simulated outputs (digest, recovery_frac) do not depend on the
    number of scan lanes;
  - without the source tree next to it, the benchmark fails without
    printing a result.
Exits 1 on the first failed assertion.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Short but long enough for each workload's minimum sample counts.
SECONDS = {"campaign-112": 2, "fleet-100k": 1, "checkpoint-112": 1,
           "serve-mixed": 16}


def check(ok, what):
    if not ok:
        print("smoke: FAILED: " + what)
        sys.exit(1)
    print("smoke: ok: " + what)


def run(workload, trace, lanes=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", str(SECONDS[workload]), "--trace", str(trace)]
    if lanes is not None:
        cmd += ["--lanes", str(lanes)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    return out.returncode, out.stdout, out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)

    gated = [m for m in spec["metrics"] if m.get("bound") is not None]
    layer = [m for m in spec["metrics"] if m["layer"] != "end_to_end"]
    check([w["name"] for w in bench["workloads"]] ==
          [w["name"] for w in spec["workloads"] if w.get("benchmark", True)],
          "workloads match spec")
    check(bench["end_to_end"] ==
          [{k: m[k] for k in ("name", "unit", "better", "bound")}
           for m in gated], "end_to_end metrics match spec")
    check(bench["per_layer"] ==
          [{k: m[k] for k in ("name", "unit", "better")} for m in layer],
          "per_layer metrics match spec")
    check(bench["paths"] == spec["paths"], "paths match spec")

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, out, err = run(name, trace)
            lines = out.strip().splitlines()
            check(code == 0 and lines, "%s trace %d exits 0 (%s)" % (
                name, trace, err.strip()[-300:]))
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"] and result["correct"] and
                  result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %d: every output check passes" % (name, trace))
            want = layer if trace else gated
            got = result["metrics"]
            check(sorted(got) == sorted(m["name"] for m in want) and
                  all(got[m["name"]]["unit"] == m["unit"] for m in want),
                  "%s trace %d: every metric emitted with its unit" %
                  (name, trace))
            if trace:
                trace_file = os.path.join(ROOT, ".bench_work", name,
                                          name + ".trace.json")
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                check(events and all("parent" in e["args"] and
                                     "id" in e["args"] for e in events),
                      "%s: Chrome trace with ids and parents" % name)
                check("unattributed" in out, "%s: self-time table" % name)
            else:
                check(all(got[m["name"]]["value"] > 0 for m in want),
                      "%s: end-to-end metrics are nonzero" % name)
                table = [m for m in spec["metrics"] if name in m["workloads"]
                         and m["layer"] == "end_to_end"]
                check(all(re.search(r"^\s+%s\s+\S+ %s$" % (
                    re.escape(m["name"]), re.escape(m["unit"])), out, re.M)
                    for m in table),
                      "%s: table prints every named metric with its unit" %
                      name)
                check(re.search(r"^host \{.*\"nproc\"", out, re.M),
                      "%s: host record" % name)

    digests = []
    for lanes in (1, 2):
        code, out, _ = run("campaign-112", 0, lanes=lanes)
        digest = re.search(r"output digest (\w+)", out).group(1)
        frac = json.loads(out.strip().splitlines()[-1])[
            "metrics"]["recovery_frac"]["value"]
        digests.append((digest, frac))
    check(digests[0] == digests[1],
          "digest and recovery_frac independent of scan lanes")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run("campaign-112", 0, cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and '"correct"' not in out,
          "without the source tree: nonzero exit, no result")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
