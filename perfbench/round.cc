#include "round.hh"

#include <time.h>

#include <algorithm>

#include "ftl/ftl.hh"
#include "learned/learned_table.hh"
#include "sim/runner.hh"
#include "spans.hh"

namespace perfbench
{

using leaftl::IoRequest;
using leaftl::LearnedTable;
using leaftl::Lpa;
using leaftl::Ppa;
using leaftl::Ssd;
using leaftl::Tick;

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
percentile(std::vector<uint64_t> &v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(v.size());
    size_t k = static_cast<size_t>(rank);
    k = (static_cast<double>(k) < rank ? k + 1 : k); // ceil
    k = std::clamp<size_t>(k, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return static_cast<double>(v[k]);
}

namespace
{

/**
 * Replays the pre-generated stream to Runner::replay with every
 * arrival shifted by @a base, so the measured phase starts after the
 * warm-up has drained and its simulated window excludes warm-up time.
 * Records the thread's CPU time every @a chunk requests and at the end
 * of the stream.
 */
class VectorSource : public leaftl::WorkloadSource
{
  public:
    VectorSource(const std::vector<IoRequest> &requests, Tick base,
                 size_t chunk, std::vector<double> &marks)
        : requests_(requests), base_(base), chunk_(chunk), marks_(marks)
    {
    }

    bool
    next(IoRequest &req) override
    {
        if (pos_ == requests_.size() || pos_ % chunk_ == 0)
            marks_.push_back(threadCpuSeconds());
        if (pos_ == requests_.size())
            return false;
        req = requests_[pos_++];
        req.arrival += base_;
        return true;
    }

    void reset() override { pos_ = 0; }
    const std::string &name() const override { return name_; }

  private:
    const std::vector<IoRequest> &requests_;
    Tick base_;
    size_t chunk_;
    std::vector<double> &marks_;
    size_t pos_ = 0;
    std::string name_ = "perfbench";
};

/** Open a span when tracing; kNoParent otherwise. */
uint32_t
open(SpanLog *log, const char *name, uint32_t parent = SpanLog::kNoParent,
     uint64_t request = SpanLog::kNoRequest)
{
    return log ? log->begin(name, parent, request) : SpanLog::kNoParent;
}

uint64_t
close(SpanLog *log, uint32_t span)
{
    return log ? log->end(span) : 0;
}

void
finishOutcome(SimOutcome &out, Ssd &ssd, const std::vector<IoRequest> &reqs)
{
    out.requests = reqs.size();
    for (const IoRequest &req : reqs)
        (req.op == leaftl::Op::Read ? out.read_pages : out.write_pages) +=
            req.npages;
    out.after = Snapshot::take(ssd);
    out.mapping_bytes = ssd.ftl().fullMappingBytes();
    out.resident_mapping_bytes = ssd.ftl().residentMappingBytes();
    out.erase_spread = ssd.blocks().eraseSpread();
}

/**
 * Post-recovery sweep. Ssd::oraclePpa would do, but its translation
 * touches LeaFTL's group residency and charges channel time, which
 * would make the own loop diverge from Runner::replay. This oracle
 * resolves each LPA the same way (table lookup, then the +-gamma OOB
 * window against the PVT) on a copy of the recovered table, so the
 * device is left untouched.
 */
uint64_t
sweepRecovered(Ssd &ssd, const Shadow &written, uint64_t &checked)
{
    const LearnedTable *table = ssd.ftl().learnedTable();
    if (!table)
        return 0;
    const auto copy = LearnedTable::deserialize(table->serialize());
    const leaftl::FlashArray &flash = ssd.flash();
    const int64_t last =
        static_cast<int64_t>(flash.geometry().totalPages()) - 1;
    const int64_t gamma = ssd.config().gamma;
    uint64_t missed = 0;
    written.forEach([&](Lpa lpa) {
        checked++;
        bool found = false;
        if (const auto hit = copy->lookup(lpa)) {
            const int64_t p =
                std::min<int64_t>(static_cast<int64_t>(hit->ppa), last);
            for (int64_t q = std::max<int64_t>(0, p - gamma);
                 !found && q <= std::min(last, p + gamma); q++) {
                found = flash.peekLpa(static_cast<Ppa>(q)) == lpa &&
                        ssd.blocks().isValid(static_cast<Ppa>(q));
            }
        }
        missed += found ? 0 : 1;
    });
    return missed;
}

} // namespace

void
LearnedCounts::add(const leaftl::LearnedTableStats &now,
                   const leaftl::LearnedTableStats &since)
{
    lookups += now.lookups - since.lookups;
    lookup_levels += now.lookup_levels_total - since.lookup_levels_total;
    lookup_cache_hits += now.lookup_cache_hits - since.lookup_cache_hits;
    segments_created += now.segments_created - since.segments_created;
}

Setup
setUp(const WorkloadDef &def, uint64_t seed, SpanLog *log)
{
    Setup s;
    const double start = threadCpuSeconds();
    const uint32_t setup = open(log, "setup");
    uint32_t span = open(log, "workload.warmup_pages", setup);
    s.warmup = warmupPages(def);
    close(log, span);

    span = open(log, "workload.next", setup);
    const double gen_start = threadCpuSeconds();
    s.requests = requestStream(def, seed);
    s.gen_ns = static_cast<uint64_t>((threadCpuSeconds() - gen_start) * 1e9);
    close(log, span);

    span = open(log, "ssd.construct", setup);
    s.ssd = std::make_unique<Ssd>(deviceConfig(def));
    close(log, span);

    // Warm-up through Ssd::write, then drain; the stream starts once
    // the channels are idle.
    span = open(log, "ssd.warmup", setup);
    Tick now = 0;
    for (const Lpa lpa : s.warmup)
        now += s.ssd->write(lpa, now);
    s.ssd->drainBuffer(now);
    s.base = std::max(now, s.ssd->channels().latestFree());
    close(log, span);
    close(log, setup);
    s.cpu_s = threadCpuSeconds() - start;
    return s;
}

Measured
replayWithRunner(const WorkloadDef &def, Setup &s)
{
    Measured m;
    m.sim.before = Snapshot::take(*s.ssd);
    std::vector<double> marks;
    const size_t chunk =
        std::max<size_t>(1, (s.requests.size() + kChunks - 1) / kChunks);
    VectorSource source(s.requests, s.base, chunk, marks);
    leaftl::RunOptions opts; // prefill_pages = 0: warmed by setUp.
    opts.crash_points = crashPoints(def);
    const double start = threadCpuSeconds();
    const leaftl::RunResult res = leaftl::Runner::replay(*s.ssd, source, opts);
    const double end = threadCpuSeconds();
    m.host_s = end - start;
    // Chunk times: start to the first mark is the replay's own set-up,
    // the last mark to the end its drain and result.
    marks.insert(marks.begin(), start);
    marks.push_back(end);
    for (size_t i = 1; i < marks.size(); i++)
        m.chunk_s.push_back(marks[i] - marks[i - 1]);

    // Closed-loop replay measures from tick 0; the stream starts at
    // base.
    m.sim.sim_ns = res.sim_time_ns - s.base;
    m.sim.e2e_read = res.e2e_read;
    m.sim.e2e_write = res.e2e_write;
    m.sim.recoveries = res.recoveries;
    m.sim.recovery = res.recovery;
    finishOutcome(m.sim, *s.ssd, s.requests);
    return m;
}

Measured
replayOwnLoop(const WorkloadDef &def, Setup &s, SpanLog *log)
{
    Measured m;
    Ssd &ssd = *s.ssd;
    m.sim.before = Snapshot::take(ssd);
    m.read_e2e.reserve(s.requests.size());
    m.write_e2e.reserve(s.requests.size());
    Shadow written(ssd.config().hostPages());
    for (const Lpa lpa : s.warmup)
        written.mark(lpa);
    leaftl::LearnedTableStats learned_since;
    auto learnedStats = [&]() -> const leaftl::LearnedTableStats * {
        const LearnedTable *table = ssd.ftl().learnedTable();
        return table ? &table->stats() : nullptr;
    };
    if (learnedStats())
        learned_since = *learnedStats();

    // Runner::replay at queue depth 1, closed loop: before each
    // submission the outstanding request retires (advancing the
    // clock), the request is submitted at max(ready, clock), and its
    // latency runs from ready to completion. Crashes happen before the
    // scheduled request, with nothing in flight.
    const std::vector<uint64_t> crashes = crashPoints(def);
    size_t next_crash = 0;
    Tick clock = 0;
    Tick last_submit = 0;
    Tick inflight = 0;
    auto retire = [&]() { clock = std::max(clock, inflight); };

    const leaftl::SsdStats &st = ssd.stats();
    const uint32_t submit_name = log ? log->name("ssd.submit") : 0;
    if (log)
        log->reserve(log->spans().size() + s.requests.size() + 64);
    double check_s = 0.0;
    const uint32_t replay = open(log, "replay");
    const double start = threadCpuSeconds();
    for (uint64_t i = 0; i < s.requests.size(); i++) {
        while (next_crash < crashes.size() && crashes[next_crash] == i) {
            next_crash++;
            retire();
            if (learnedStats())
                m.learned.add(*learnedStats(), learned_since);
            const uint32_t span = open(log, "ssd.crashAndRecover", replay, i);
            addRecovery(m.sim.recovery, ssd.crashAndRecover(clock));
            close(log, span);
            m.sim.recoveries++;

            const double check_start = threadCpuSeconds();
            const uint32_t check =
                open(log, "check.recovery_sweep", replay, i);
            m.missed += sweepRecovered(ssd, written, m.checked);
            close(log, check);
            check_s += threadCpuSeconds() - check_start;
            if (learnedStats())
                learned_since = *learnedStats();
        }

        IoRequest req = s.requests[i];
        req.arrival += s.base;
        req.tag = i;
        const Tick ready = std::max(req.arrival, last_submit);
        retire();
        const Tick submit_at = std::max(ready, clock);
        Tick done;
        if (log) {
            const uint64_t data_writes = st.data_writes;
            const uint64_t gc_runs = st.gc_runs;
            const uint64_t compactions = st.compactions;
            const uint32_t span = log->begin(submit_name, replay, i);
            done = ssd.submit(req, submit_at);
            SubmitKind kind = req.op == leaftl::Op::Read
                                  ? SubmitKind::Read
                                  : SubmitKind::BufferedWrite;
            if (st.gc_runs != gc_runs)
                kind = SubmitKind::Gc;
            else if (st.data_writes != data_writes)
                kind = SubmitKind::Flush;
            else if (st.compactions != compactions)
                kind = SubmitKind::Compaction;
            log->end(span, kind);
        } else {
            done = ssd.submit(req, submit_at);
        }
        inflight = done;
        last_submit = submit_at;

        const uint64_t e2e = done - ready;
        if (req.op == leaftl::Op::Read) {
            m.sim.e2e_read.add(static_cast<double>(e2e));
            m.read_e2e.push_back(e2e);
        } else {
            m.sim.e2e_write.add(static_cast<double>(e2e));
            m.write_e2e.push_back(e2e);
            for (uint32_t p = 0; p < req.npages; p++)
                written.mark(static_cast<uint64_t>(req.lpa) + p);
        }
    }
    retire();
    const uint32_t drain = open(log, "ssd.drainBuffer", replay);
    ssd.drainBuffer(clock);
    close(log, drain);
    m.host_s = threadCpuSeconds() - start - check_s;
    close(log, replay);
    if (learnedStats())
        m.learned.add(*learnedStats(), learned_since);

    m.sim.sim_ns = clock - s.base;
    finishOutcome(m.sim, ssd, s.requests);
    return m;
}

Expectation
expect(const Setup &s)
{
    Expectation e{Shadow(s.ssd->config().hostPages())};
    for (const Lpa lpa : s.warmup)
        e.written.mark(lpa);
    for (const IoRequest &req : s.requests) {
        for (uint32_t i = 0; i < req.npages; i++) {
            const uint64_t lpa = static_cast<uint64_t>(req.lpa) + i;
            if (req.op == leaftl::Op::Write)
                e.written.mark(lpa);
            else if (!e.written.has(lpa))
                e.unwritten_read_pages++;
        }
    }
    return e;
}

uint64_t
sweepOracle(Ssd &ssd, const Shadow &written, uint64_t &checked)
{
    uint64_t missed = 0;
    written.forEach([&](Lpa lpa) {
        checked++;
        missed += ssd.oraclePpa(lpa) ? 0 : 1;
    });
    return missed;
}

} // namespace perfbench
