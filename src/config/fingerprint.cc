#include "config/fingerprint.hh"

#include <cstdio>
#include <map>

namespace leaftl
{
namespace config
{

namespace
{

/** Round-trip-exact double rendering (canonical, locale-free). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
canonicalRunConfig(const ExperimentSpec &spec, const RunPoint &point)
{
    // An ordered map keeps the lines sorted by key as they are added.
    std::map<std::string, std::string> kv;
    kv.emplace("ftl", ftlKindName(point.ftl));
    kv.emplace("workload", point.workload);
    kv.emplace("qd", std::to_string(point.qd));
    kv.emplace("device", point.device);
    kv.emplace("mode", point.mode);
    kv.emplace("requests", std::to_string(spec.requests));
    kv.emplace("ws", std::to_string(spec.working_set_pages));
    kv.emplace("dram-bytes", std::to_string(spec.dram_bytes));
    kv.emplace("prefill", fmtDouble(spec.prefill_frac));
    kv.emplace("seed", std::to_string(spec.seed));
    // Result-irrelevant keys are dropped so equivalent runs collide:
    // the same dedupe rules the sweep applies (gamma only changes
    // LeaFTL, rate only the rate-driven modes, burst-duty only
    // burst), plus the optional overrides at their "unset" defaults.
    if (point.ftl == FtlKind::LeaFTL)
        kv.emplace("gamma", std::to_string(point.gamma));
    if (modeUsesRate(point.mode))
        kv.emplace("rate", fmtDouble(point.rate));
    if (point.mode == "burst")
        kv.emplace("burst-duty", fmtDouble(spec.burst_duty));
    if (spec.read_ratio >= 0.0)
        kv.emplace("read-ratio", fmtDouble(spec.read_ratio));
    if (spec.interarrival_us >= 0.0)
        kv.emplace("interarrival", fmtDouble(spec.interarrival_us));
    // Durability knobs only perturb LeaFTL runs, and only when set, so
    // every historical fingerprint is preserved at the defaults.
    if (point.ftl == FtlKind::LeaFTL) {
        if (spec.snapshot_interval_writes > 0)
            kv.emplace("snapshot-interval",
                       std::to_string(spec.snapshot_interval_writes));
        if (spec.journal_threshold_bytes > 0)
            kv.emplace("journal-threshold",
                       std::to_string(spec.journal_threshold_bytes));
    }
    if (!spec.crash_points.empty()) {
        std::string pts;
        for (const uint64_t p : spec.crash_points) {
            if (!pts.empty())
                pts += ',';
            pts += std::to_string(p);
        }
        kv.emplace("crash-at", pts);
    }

    std::string out;
    for (const auto &[key, value] : kv) {
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }
    return out;
}

std::string
runFingerprint(const ExperimentSpec &spec, const RunPoint &point)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(canonicalRunConfig(spec, point))));
    return buf;
}

} // namespace config
} // namespace leaftl
