/**
 * @file
 * The simulated result of one measured phase, built from counter
 * snapshots taken after set-up and at the end of the phase. Every
 * SsdStats-based number is a delta over the measured phase: the
 * device's own counters, RunResult::ssd, RunResult::waf and
 * RunResult::mispredict_ratio are cumulative and include the warm-up.
 *
 * Everything here is the model's output and repeats exactly for a
 * fixed seed; sameSimulation() compares two outcomes bit for bit.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flash/flash_array.hh"
#include "ssd/ssd.hh"
#include "util/stats.hh"

namespace perfbench
{

/** Device counters at one instant. */
struct Snapshot
{
    leaftl::SsdStats ssd;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t gc_pick_calls = 0;
    uint64_t gc_pick_scanned = 0;
    leaftl::FlashCounters flash;

    static Snapshot
    take(leaftl::Ssd &dev)
    {
        Snapshot s;
        s.ssd = dev.stats();
        s.cache_hits = dev.dataCacheHits();
        s.cache_misses = dev.dataCacheMisses();
        s.gc_pick_calls = dev.blocks().gcPickCalls();
        s.gc_pick_scanned = dev.blocks().gcPickScanned();
        s.flash = dev.flash().counters();
        return s;
    }
};

/** Simulated result of one measured phase. */
struct SimOutcome
{
    uint64_t requests = 0;
    uint64_t read_pages = 0;
    uint64_t write_pages = 0;
    /** Simulated measured window: first arrival to last completion. */
    leaftl::Tick sim_ns = 0;
    /** End-to-end request latency (closed loop: from submittable). */
    leaftl::LatencyHistogram e2e_read;
    leaftl::LatencyHistogram e2e_write;
    Snapshot before;
    Snapshot after;
    uint64_t mapping_bytes = 0;
    uint64_t resident_mapping_bytes = 0;
    uint32_t erase_spread = 0;
    uint64_t recoveries = 0;
    leaftl::RecoveryStats recovery;

    /** Delta of one SsdStats counter over the measured phase. */
    uint64_t
    delta(uint64_t leaftl::SsdStats::*field) const
    {
        return after.ssd.*field - before.ssd.*field;
    }

    /** Write amplification over the measured phase (SsdStats::waf). */
    double
    waf() const
    {
        using S = leaftl::SsdStats;
        const uint64_t host = delta(&S::host_writes);
        const uint64_t actual = delta(&S::data_writes) +
                                delta(&S::gc_writes) +
                                delta(&S::trans_writes) +
                                delta(&S::wear_writes);
        return host ? static_cast<double>(actual) / host : 0.0;
    }

    /** Simulated throughput in MiB/s (leaftl_sim's throughput_mbps). */
    double
    mibPerSecond(uint32_t page_size) const
    {
        const double bytes =
            static_cast<double>(read_pages + write_pages) * page_size;
        return sim_ns ? bytes / (static_cast<double>(sim_ns) / 1e9) /
                            (1 << 20)
                      : 0.0;
    }

    /** Reads the device served as unmapped or unresolved. */
    uint64_t
    missedReads() const
    {
        using S = leaftl::SsdStats;
        return delta(&S::unmapped_reads) + delta(&S::unresolved_reads);
    }

    /**
     * Every simulated quantity as (name, value), for the bit-for-bit
     * comparison and for the record of a mismatch.
     */
    std::vector<std::pair<std::string, double>> fields() const;
};

/**
 * Compare two outcomes bit for bit. @return "" when identical, else
 * the first differing field with both values.
 */
std::string sameSimulation(const SimOutcome &a, const SimOutcome &b);

/** Fold one recovery's statistics into @a total. */
void addRecovery(leaftl::RecoveryStats &total, const leaftl::RecoveryStats &r);

} // namespace perfbench
