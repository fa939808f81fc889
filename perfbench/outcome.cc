#include "outcome.hh"

#include <sstream>

namespace perfbench
{

std::vector<std::pair<std::string, double>>
SimOutcome::fields() const
{
    using S = leaftl::SsdStats;
    std::vector<std::pair<std::string, double>> f;
    auto add = [&](const char *name, double v) { f.emplace_back(name, v); };
    auto hist = [&](const std::string &name,
                    const leaftl::LatencyHistogram &h) {
        f.emplace_back(name + ".count", static_cast<double>(h.count()));
        f.emplace_back(name + ".mean", h.mean());
        f.emplace_back(name + ".max", h.max());
        for (const auto &[x, p] : h.cdf()) {
            f.emplace_back(name + ".cdf_x", x);
            f.emplace_back(name + ".cdf_p", p);
        }
    };
    add("requests", static_cast<double>(requests));
    add("read_pages", static_cast<double>(read_pages));
    add("write_pages", static_cast<double>(write_pages));
    add("sim_ns", static_cast<double>(sim_ns));
    hist("e2e_read", e2e_read);
    hist("e2e_write", e2e_write);
    hist("device_read", after.ssd.read_latency);
    hist("device_write", after.ssd.write_latency);
    const std::pair<const char *, uint64_t S::*> counters[] = {
        {"host_reads", &S::host_reads},
        {"host_writes", &S::host_writes},
        {"buffer_read_hits", &S::buffer_read_hits},
        {"unmapped_reads", &S::unmapped_reads},
        {"unresolved_reads", &S::unresolved_reads},
        {"data_reads", &S::data_reads},
        {"data_writes", &S::data_writes},
        {"gc_runs", &S::gc_runs},
        {"gc_reads", &S::gc_reads},
        {"gc_writes", &S::gc_writes},
        {"gc_erases", &S::gc_erases},
        {"wear_migrations", &S::wear_migrations},
        {"wear_reads", &S::wear_reads},
        {"wear_writes", &S::wear_writes},
        {"trans_reads", &S::trans_reads},
        {"trans_writes", &S::trans_writes},
        {"mispredictions", &S::mispredictions},
        {"mispredict_extra_reads", &S::mispredict_extra_reads},
        {"translations", &S::translations},
        {"compactions", &S::compactions},
    };
    for (const auto &[name, field] : counters)
        add(name, static_cast<double>(delta(field)));
    add("cache_hits",
        static_cast<double>(after.cache_hits - before.cache_hits));
    add("cache_misses",
        static_cast<double>(after.cache_misses - before.cache_misses));
    add("gc_pick_calls", static_cast<double>(after.gc_pick_calls -
                                             before.gc_pick_calls));
    add("gc_pick_scanned", static_cast<double>(after.gc_pick_scanned -
                                               before.gc_pick_scanned));
    add("flash_reads", static_cast<double>(after.flash.page_reads -
                                           before.flash.page_reads));
    add("flash_programs", static_cast<double>(after.flash.page_writes -
                                              before.flash.page_writes));
    add("flash_erases", static_cast<double>(after.flash.block_erases -
                                            before.flash.block_erases));
    add("erase_spread", erase_spread);
    add("mapping_bytes", static_cast<double>(mapping_bytes));
    add("resident_mapping_bytes",
        static_cast<double>(resident_mapping_bytes));
    add("recoveries", static_cast<double>(recoveries));
    add("recovery.scanned_blocks",
        static_cast<double>(recovery.scanned_blocks));
    add("recovery.scanned_pages",
        static_cast<double>(recovery.scanned_pages));
    add("recovery.relearned_mappings",
        static_cast<double>(recovery.relearned_mappings));
    add("recovery.applied_deltas",
        static_cast<double>(recovery.applied_deltas));
    add("recovery.replayed_journal_records",
        static_cast<double>(recovery.replayed_journal_records));
    add("recovery.replayed_journal_bytes",
        static_cast<double>(recovery.replayed_journal_bytes));
    add("recovery.recovery_time",
        static_cast<double>(recovery.recovery_time));
    return f;
}

std::string
sameSimulation(const SimOutcome &a, const SimOutcome &b)
{
    const auto fa = a.fields();
    const auto fb = b.fields();
    if (fa.size() != fb.size())
        return "field count " + std::to_string(fa.size()) + " vs " +
               std::to_string(fb.size());
    for (size_t i = 0; i < fa.size(); i++) {
        if (fa[i] != fb[i]) {
            std::ostringstream os;
            os.precision(17);
            os << fa[i].first << " " << fa[i].second << " vs " << fb[i].first
               << " " << fb[i].second;
            return os.str();
        }
    }
    return "";
}

void
addRecovery(leaftl::RecoveryStats &total, const leaftl::RecoveryStats &r)
{
    total.scanned_blocks += r.scanned_blocks;
    total.scanned_pages += r.scanned_pages;
    total.relearned_mappings += r.relearned_mappings;
    total.applied_deltas += r.applied_deltas;
    total.replayed_journal_records += r.replayed_journal_records;
    total.replayed_journal_bytes += r.replayed_journal_bytes;
    total.recovery_time += r.recovery_time;
}

} // namespace perfbench
