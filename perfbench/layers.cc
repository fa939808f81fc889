#include "layers.hh"

#include "ftl/ftl.hh"
#include "learned/learned_table.hh"

namespace perfbench
{

using leaftl::IoRequest;
using leaftl::LearnedTable;
using leaftl::Lpa;

namespace
{

/** Keeps the timed lookups from being optimised away. */
volatile uint64_t g_probe_sink = 0;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
asDouble(uint64_t v)
{
    return static_cast<double>(v);
}

std::string
samples(size_t n)
{
    return "n=" + std::to_string(n);
}

} // namespace

std::vector<Metric>
layerMetrics(SpanLog &log, const Measured &m, Setup &s)
{
    using S = leaftl::SsdStats;
    const SimOutcome &o = m.sim;
    leaftl::Ssd &ssd = *s.ssd;
    std::vector<Metric> out;

    // Workload layer: stream generation, timed in set-up.
    out.push_back({"workload.gen_ns_per_req",
                   ratio(asDouble(s.gen_ns), asDouble(o.requests)), "ns"});

    // Ssd layer: submit spans by what the call did.
    const uint32_t submit = log.name("ssd.submit");
    std::vector<uint64_t> read_ns, write_ns, flush_ns;
    uint64_t flush_total_ns = 0;
    for (const Span &span : log.spans()) {
        if (span.name != submit)
            continue;
        switch (span.kind) {
        case SubmitKind::Read:
            read_ns.push_back(span.duration());
            break;
        case SubmitKind::BufferedWrite:
            write_ns.push_back(span.duration());
            break;
        case SubmitKind::Flush:
        case SubmitKind::Gc:
            flush_ns.push_back(span.duration());
            flush_total_ns += span.duration();
            break;
        default:
            break;
        }
    }
    const uint64_t replay_ns =
        log.totalNs("replay") - log.totalNs("check.recovery_sweep");
    const size_t reads = read_ns.size();
    const size_t writes = write_ns.size();
    const size_t flushes = flush_ns.size();
    out.push_back({"ssd.read_call_ns_p50", percentile(read_ns, 50), "ns",
                   samples(reads)});
    out.push_back({"ssd.read_call_ns_p99", percentile(read_ns, 99), "ns",
                   samples(reads)});
    out.push_back({"ssd.buffered_write_call_ns_p50",
                   percentile(write_ns, 50), "ns", samples(writes)});
    out.push_back({"ssd.flush_calls", asDouble(flushes), "count"});
    out.push_back({"ssd.flush_call_ms_p50", percentile(flush_ns, 50) / 1e6,
                   "ms", samples(flushes)});
    out.push_back({"ssd.flush_call_ms_max", percentile(flush_ns, 100) / 1e6,
                   "ms", samples(flushes)});
    out.push_back({"ssd.flush_host_share",
                   ratio(asDouble(flush_total_ns), asDouble(replay_ns)),
                   "ratio"});

    const double host_writes = asDouble(o.delta(&S::host_writes));
    out.push_back({"ssd.gc_runs", asDouble(o.delta(&S::gc_runs)), "count"});
    out.push_back({"ssd.gc_pages_migrated_per_write",
                   ratio(asDouble(o.delta(&S::gc_writes)), host_writes),
                   "ratio"});
    out.push_back(
        {"ssd.gc_pick_scanned_per_call",
         ratio(asDouble(o.after.gc_pick_scanned - o.before.gc_pick_scanned),
               asDouble(o.after.gc_pick_calls - o.before.gc_pick_calls)),
         "count"});
    const double hits = asDouble(o.after.cache_hits - o.before.cache_hits);
    const double misses =
        asDouble(o.after.cache_misses - o.before.cache_misses);
    out.push_back({"ssd.data_cache_hit_ratio", ratio(hits, hits + misses),
                   "ratio"});
    out.push_back({"ssd.buffer_read_hit_ratio",
                   ratio(asDouble(o.delta(&S::buffer_read_hits)),
                         asDouble(o.delta(&S::host_reads))),
                   "ratio"});
    out.push_back({"ssd.recover_ms",
                   asDouble(log.totalNs("ssd.crashAndRecover")) / 1e6, "ms",
                   samples(o.recoveries)});
    out.push_back({"ssd.recovery_sim_ms",
                   asDouble(o.recovery.recovery_time) / 1e6, "ms"});
    out.push_back({"ssd.recovery_scanned_pages",
                   asDouble(o.recovery.scanned_pages), "count"});
    out.push_back({"ssd.journal_records_replayed",
                   asDouble(o.recovery.replayed_journal_records), "count"});
    out.push_back({"ssd.drain_ms",
                   asDouble(log.totalNs("ssd.drainBuffer")) / 1e6, "ms"});

    // Learned layer: deltas over the measured phase, then probes on a
    // copy of the end-state table.
    double segments = 0.0, levels_per_group = 0.0;
    double probe_ns = 0.0, compact_ms = 0.0;
    if (const LearnedTable *table = ssd.ftl().learnedTable()) {
        segments = asDouble(table->numSegments());
        levels_per_group = table->levelsPerGroup().mean();

        uint32_t span = log.begin("learned.serialize");
        const std::vector<uint8_t> blob = table->serialize();
        log.end(span);
        span = log.begin("learned.deserialize");
        const auto copy = LearnedTable::deserialize(blob);
        log.end(span);

        const uint64_t host_pages = ssd.config().hostPages();
        std::vector<Lpa> probes;
        for (const IoRequest &req : s.requests)
            if (req.op == leaftl::Op::Read)
                for (uint32_t p = 0; p < req.npages; p++)
                    probes.push_back(static_cast<Lpa>(
                        (static_cast<uint64_t>(req.lpa) + p) % host_pages));
        uint64_t sink = 0;
        span = log.begin("learned.lookup");
        for (const Lpa lpa : probes)
            if (const auto hit = copy->lookup(lpa))
                sink += hit->ppa;
        probe_ns = ratio(asDouble(log.end(span)), asDouble(probes.size()));
        g_probe_sink = sink;

        span = log.begin("learned.compact");
        copy->compact();
        compact_ms = asDouble(log.end(span)) / 1e6;
    }
    const LearnedCounts &l = m.learned;
    out.push_back({"learned.lookup_levels_mean",
                   ratio(asDouble(l.lookup_levels), asDouble(l.lookups)),
                   "count"});
    out.push_back({"learned.lookup_cache_hit_ratio",
                   ratio(asDouble(l.lookup_cache_hits), asDouble(l.lookups)),
                   "ratio"});
    out.push_back({"learned.lookup_probe_ns", probe_ns, "ns"});
    out.push_back({"learned.mispredict_ratio",
                   ratio(asDouble(o.delta(&S::mispredictions)),
                         asDouble(o.delta(&S::translations))),
                   "ratio"});
    out.push_back({"learned.mispredict_extra_reads",
                   asDouble(o.delta(&S::mispredict_extra_reads)), "count"});
    out.push_back({"learned.segments", segments, "count"});
    out.push_back({"learned.segments_created", asDouble(l.segments_created),
                   "count"});
    out.push_back({"learned.levels_per_group_mean", levels_per_group,
                   "count"});
    out.push_back({"learned.compact_pass_ms", compact_ms, "ms"});

    // Ftl layer: translation-page traffic and DRAM residency.
    const double requests = asDouble(o.requests);
    out.push_back({"ftl.trans_reads_per_req",
                   ratio(asDouble(o.delta(&S::trans_reads)), requests),
                   "ratio"});
    out.push_back({"ftl.trans_writes_per_req",
                   ratio(asDouble(o.delta(&S::trans_writes)), requests),
                   "ratio"});
    out.push_back({"ftl.resident_mapping_bytes",
                   asDouble(o.resident_mapping_bytes), "bytes"});

    // Flash layer.
    out.push_back({"flash.reads_per_read_page",
                   ratio(asDouble(o.after.flash.page_reads -
                                  o.before.flash.page_reads),
                         asDouble(o.read_pages)),
                   "ratio"});
    out.push_back({"flash.programs_per_host_write",
                   ratio(asDouble(o.after.flash.page_writes -
                                  o.before.flash.page_writes),
                         host_writes),
                   "ratio"});
    out.push_back({"flash.erases",
                   asDouble(o.after.flash.block_erases -
                            o.before.flash.block_erases),
                   "count"});
    out.push_back({"flash.erase_spread", asDouble(o.erase_spread), "count"});
    return out;
}

} // namespace perfbench
