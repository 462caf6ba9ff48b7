#!/usr/bin/env python3
"""Pentimento benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload campaign-112 --seed 1 --seconds 20 --trace 0

Run from the root of the source tree. The first call builds the library,
the shipped campaign_server and the benchmark driver into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only re-check the build. The workload then runs in its own driver
process (perfbench/driver), for serve-mixed against a freshly spawned
campaign_server. Every output check the driver makes is reported; any
failed check makes the result incorrect and the exit code 1.

Output: a table of every metric the workload has (by name, with unit), a
host record line, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
listed in perfbench/spec.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
GOLDEN = os.path.join(ROOT, "bench", "fleet_campaign_golden.csv")

# Spawns per serve-mixed run whose start-up time makes setup_s.
SERVER_SPAWNS = 7
DRIVER_GRACE_S = 120


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configure once, then (re)build the driver and the server."""
    for needed in ("CMakeLists.txt", os.path.join("src", "serve", "campaign.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("source tree incomplete: %s is missing" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", out, "-j", jobs,
                "--target", "perfbench_driver", "campaign_server"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(configure, log) != 0:
            fail("configure failed; see " + log, 1)
    if run_logged(compile_, log) != 0:
        # A cache from another source location cannot be reused.
        shutil.rmtree(out)
        os.makedirs(out)
        if run_logged(configure, log) != 0 or run_logged(compile_, log) != 0:
            fail("build failed; see " + log, 1)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "pentimento", "bench", "campaign_server"))


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Server:
    """The shipped campaign_server, spawned on an ephemeral port."""

    def __init__(self, binary, work, executors, workers):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--executors", str(executors),
             "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=work,
            text=True)
        self.rss_mb = None
        line = self.proc.stdout.readline()
        if "listening on port" not in line:
            self.stop()
            fail("campaign_server did not start: %r" % line, 1)
        self.port = int(line.split()[-1])
        # Up means accepting: a connection completes.
        with socket.create_connection(("127.0.0.1", self.port), timeout=10):
            pass
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM (graceful drain), SIGKILL after 10 s; reap and keep RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()


def run_driver(cmd, seconds):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + DRIVER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("driver timed out", 1)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode, 1)
    try:
        return json.loads(lines[-1]), proc.returncode
    except ValueError:
        fail("driver output is not JSON: %r" % lines[-1][:200], 1)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src", "bench", "perfbench")]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for dirpath, dirnames, names in os.walk(r):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if not n.endswith(".pyc")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def filesystem_of(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lanes", type=int, default=spec["scan_lanes"],
                        help="scan-phase lanes of the in-process engine")
    args = parser.parse_args()
    workload = workloads[args.workload]

    driver, server_bin = build()
    work = os.path.join(".bench_work", args.workload)
    os.makedirs(work, exist_ok=True)
    server_cfg = spec["server"]

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--lanes", str(args.lanes), "--golden", GOLDEN,
           "--work-dir", work]
    setups = []
    server = None
    serve = args.workload == "serve-mixed"
    try:
        if serve:
            for _ in range(SERVER_SPAWNS - 1):
                s = Server(server_bin, work, server_cfg["executors"],
                           server_cfg["workers"])
                setups.append(s.setup_s)
                s.stop()
        if serve or args.trace:
            # Traced runs of every workload probe the serve layer too.
            server = Server(server_bin, work, server_cfg["executors"],
                            server_cfg["workers"])
            setups.append(server.setup_s)
            load = workload.get("load", spec["serve_probe_load"])
            cmd += ["--port", str(server.port),
                    "--ping-rate", str(load["ping_per_s"]),
                    "--scan-rate", str(load["scan_per_s"]),
                    "--malformed-every", str(load["malformed_every"])]
        result, code = run_driver(cmd, args.seconds)
    finally:
        if server is not None:
            server.stop()

    named = dict(result["named"])
    if serve:
        named["setup_s"] = statistics.median(setups)
        named["peak_rss_mb"] = server.rss_mb
    attempted = max(1, int(result["attempted"]))
    failures = [list(f) for f in result["failures"]]
    named["failed_frac"] = (int(result["failed"]) + len(failures)) / attempted

    # Every metric the workload promises must be there with a unit.
    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    wanted = [m for m in spec["metrics"]
              if args.workload in m["workloads"] and m["layer"] == "end_to_end"]
    for m in wanted:
        if named.get(m["name"]) is None:
            failures.append(["metric", "missing " + m["name"]])
    if args.trace:
        layer = result["per_layer"]
        for m in spec["metrics"]:
            if m["layer"] != "end_to_end" and m["name"] not in layer:
                failures.append(["metric", "missing " + m["name"]])
    else:
        for m in spec["metrics"]:
            if m.get("bound") is not None and not named.get(m["name"]):
                failures.append(["metric", m["name"] + " is missing or 0"])

    print("workload %s  seed %d  %.0f s  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(named):
        if name in units:
            print("  %-24s %16.6g %s" % (name, named[name], units[name]))
    if args.trace:
        for name in sorted(result["per_layer"]):
            print("  %-24s %16.6g %s" % (name, result["per_layer"][name],
                                        units.get(name, "")))
        print("per-layer self time over the traced campaigns:")
        print(result["self_time"].rstrip())
    print("  samples " + ", ".join(
        "%s %d" % (k[2:], named[k]) for k in sorted(named) if k.startswith("n_")))
    print("  output digest %s; %d checks, %d failed" % (
        result["digest"], result["checks"], len(failures)))
    for name, detail in failures:
        print("  CHECK FAILED %s: %s" % (name, detail))

    host = dict(result["host"])
    host.update({
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cxx_compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "server_executors": server_cfg["executors"],
        "server_workers": server_cfg["workers"],
        "checkpoint_fs": filesystem_of(work),
        "python": sys.version.split()[0],
    })
    print("host " + json.dumps(host, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "named": named,
              "per_layer": result["per_layer"], "digest": result["digest"],
              "failures": failures, "host": host}
    with open(os.path.join(work, "result-trace%d.json" % args.trace), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    correct = code == 0 and not failures
    if args.trace:
        values = result["per_layer"]
        kinds = [m for m in spec["metrics"] if m["layer"] != "end_to_end"]
    else:
        values = named
        kinds = [m for m in spec["metrics"] if m.get("bound") is not None]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in kinds}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": int(result["failed"]) + len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
