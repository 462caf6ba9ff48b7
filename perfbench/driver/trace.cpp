#include "trace.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

namespace {

struct OpInfo
{
    const char *name;
    const char *layer;
};

constexpr std::array<OpInfo, kOpCount> kOps = {{
    {"campaign", "driver"},
    {"day", "driver"},
    {"checkpoint", "driver"},
    {"resume", "driver"},
    {"attack", "driver"},
    {"board", "driver"},
    {"CloudPlatform::CloudPlatform", "cloud"},
    {"CloudPlatform::rent", "cloud"},
    {"CloudPlatform::advanceHours", "cloud"},
    {"CloudPlatform::release", "cloud"},
    {"CloudPlatform::loadDesign", "fabric"},
    {"Device::allocateRoute", "fabric"},
    {"TargetDesign::TargetDesign", "fabric"},
    {"MeasureDesign::MeasureDesign", "tdc"},
    {"MeasureDesign::calibrateAll", "tdc"},
    {"MeasureDesign::measureAll", "tdc"},
    {"ThreatModel2Classifier::classify", "core"},
    {"CloudPlatform::saveState+SnapshotWriter::finish", "snapshot"},
    {"util::crc32c", "snapshot"},
    {"SnapshotWriter::commitRotating", "snapshot"},
    {"SnapshotReader::openWithFallback", "snapshot"},
    {"CloudPlatform::restoreState", "snapshot"},
    {"ClientConnection::call(Ping)", "serve"},
    {"ClientConnection::call(FleetScan)", "serve"},
    {"ClientConnection::sendRaw(malformed)", "serve"},
}};

double
usBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

const char *
opName(Op op)
{
    return kOps[static_cast<std::size_t>(op)].name;
}

const char *
opLayer(Op op)
{
    return kOps[static_cast<std::size_t>(op)].layer;
}

void
OpTotals::add(const OpTotals &other)
{
    for (std::size_t i = 0; i < kOpCount; ++i) {
        calls[i] += other.calls[i];
        ms[i] += other.ms[i];
        self_ms[i] += other.self_ms[i];
    }
}

Tracer::Tracer(std::uint32_t tid, Clock::time_point epoch,
               std::size_t max_records)
    : tid_(tid), epoch_(epoch), max_records_(max_records)
{
}

std::int64_t
Tracer::begin(Op op)
{
    std::int64_t record = -1;
    if (records_.size() < max_records_) {
        SpanRecord rec;
        rec.op = op;
        rec.tid = tid_;
        rec.parent = stack_.empty() ? -1 : stack_.back().record;
        rec.owner = owner_;
        record = static_cast<std::int64_t>(records_.size());
        records_.push_back(rec);
    }
    const Clock::time_point now = Clock::now();
    if (record >= 0) {
        records_[static_cast<std::size_t>(record)].start_us =
            usBetween(epoch_, now);
    }
    stack_.push_back(Open{op, record, now, 0.0});
    return static_cast<std::int64_t>(stack_.size()) - 1;
}

void
Tracer::end(std::int64_t handle)
{
    const Clock::time_point now = Clock::now();
    // Spans are strictly nested (RAII), so the handle is always the top.
    const Open open = stack_[static_cast<std::size_t>(handle)];
    stack_.pop_back();
    const double dur_us = usBetween(open.start, now);
    const double dur_ms = dur_us / 1000.0;
    const auto i = static_cast<std::size_t>(open.op);
    ++totals_.calls[i];
    totals_.ms[i] += dur_ms;
    totals_.self_ms[i] += dur_ms - open.child_ms;
    if (!stack_.empty()) {
        stack_.back().child_ms += dur_ms;
    }
    if (open.record >= 0) {
        records_[static_cast<std::size_t>(open.record)].dur_us = dur_us;
    }
}

OpTotals
Tracer::takeTotals()
{
    OpTotals out = totals_;
    totals_ = OpTotals{};
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const Tracer *> &tracers)
{
    std::FILE *fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
        return false;
    }
    std::fprintf(fp, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (const Tracer *tracer : tracers) {
        const std::vector<SpanRecord> &records = tracer->records();
        for (std::size_t k = 0; k < records.size(); ++k) {
            const SpanRecord &r = records[k];
            std::fprintf(
                fp,
                "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"span\":\"%u.%zu\",\"parent\":",
                first ? "" : ",\n", opName(r.op), opLayer(r.op), r.tid,
                r.start_us, r.dur_us, r.tid, k);
            if (r.parent >= 0) {
                std::fprintf(fp, "\"%u.%lld\"", r.tid,
                             static_cast<long long>(r.parent));
            } else {
                std::fprintf(fp, "null");
            }
            std::fprintf(fp, ",\"id\":%llu}}",
                         static_cast<unsigned long long>(r.owner));
            first = false;
        }
    }
    std::fprintf(fp, "\n]}\n");
    return std::fclose(fp) == 0;
}

std::string
selfTimeTable(const OpTotals &totals)
{
    std::map<std::string, double> by_layer;
    double all = 0.0;
    for (std::size_t i = 0; i < kOpCount; ++i) {
        by_layer[kOps[i].layer] += totals.self_ms[i];
        all += totals.self_ms[i];
    }
    std::string out = "  layer       self ms      share\n";
    char line[96];
    const auto row = [&](const std::string &layer, double ms) {
        std::snprintf(line, sizeof(line), "  %-10s %10.2f %9.1f%%\n",
                      layer.c_str(), ms, all > 0.0 ? 100.0 * ms / all : 0.0);
        out += line;
    };
    for (const auto &[layer, ms] : by_layer) {
        if (layer != "driver") {
            row(layer, ms);
        }
    }
    row("unattributed", by_layer["driver"]);
    return out;
}

} // namespace perfbench
