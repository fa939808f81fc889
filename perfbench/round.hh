/**
 * @file
 * Rounds. A round is set-up (input generation, device construction,
 * warm-up) followed by one measured phase at queue depth 1, closed
 * loop. Rounds of one seed are exact replicas: the benchmark repeats
 * them for --seconds, reports medians of the host times, and requires
 * every simulated number to stay identical.
 *
 * The measured phase runs either through Runner::replay (the timed
 * rounds) or through the benchmark's own copy of its loop over
 * Ssd::submit, which also yields per-request latencies and, when a
 * SpanLog is attached, one span per call into each layer.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "learned/learned_table.hh"
#include "outcome.hh"
#include "workloads.hh"

namespace perfbench
{

class SpanLog;

/** Slices the timed measured phase is split into (see Measured). */
constexpr size_t kChunks = 32;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** Free text printed after the value (sample counts). */
    std::string note = {};
};

/** Host CPU time of the calling thread, in seconds. */
double threadCpuSeconds();

/** Nearest-rank percentile of @a v (reordered); 0 when empty. */
double percentile(std::vector<uint64_t> &v, double p);

/** A warmed device and the stream to measure on it. */
struct Setup
{
    std::vector<leaftl::Lpa> warmup;
    std::vector<leaftl::IoRequest> requests;
    std::unique_ptr<leaftl::Ssd> ssd;
    /** Tick at which the warmed device is idle; the stream starts here. */
    leaftl::Tick base = 0;
    /** Host CPU seconds of the whole set-up. */
    double cpu_s = 0.0;
    /** Host ns spent pulling the stream through WorkloadSource::next. */
    uint64_t gen_ns = 0;
};

/** Generate the inputs, build the device, warm it up (spans optional). */
Setup setUp(const WorkloadDef &def, uint64_t seed, SpanLog *log = nullptr);

/** Learned-table counters over the measured phase. */
struct LearnedCounts
{
    uint64_t lookups = 0;
    uint64_t lookup_levels = 0;
    uint64_t lookup_cache_hits = 0;
    uint64_t segments_created = 0;

    /** Add @a now minus @a since (one table lifetime). */
    void add(const leaftl::LearnedTableStats &now,
             const leaftl::LearnedTableStats &since);
};

/** Result of one measured phase. */
struct Measured
{
    SimOutcome sim;
    /**
     * Summed over the table's lifetimes (own loop only): a recovery
     * replaces the table, and its own relearning is not counted.
     */
    LearnedCounts learned;
    /** Host CPU seconds of the measured phase, checks excluded. */
    double host_s = 0.0;
    /**
     * Runner::replay only: host_s split into consecutive slices of
     * about 1/kChunks of the stream each, so rounds can be compared
     * slice by slice.
     */
    std::vector<double> chunk_s;
    /** Per-request end-to-end latencies in ns (own loop only). */
    std::vector<uint64_t> read_e2e;
    std::vector<uint64_t> write_e2e;
    /** Post-recovery sweeps (own loop only): LPAs checked, missed. */
    uint64_t checked = 0;
    uint64_t missed = 0;
};

/** Measured phase through Runner::replay. */
Measured replayWithRunner(const WorkloadDef &def, Setup &s);

/**
 * Measured phase through the benchmark's copy of Runner::replay's
 * closed loop at queue depth 1. After each recovery it sweeps every
 * LPA written so far. With @a log it records spans and names each
 * submit span by what the call did.
 */
Measured replayOwnLoop(const WorkloadDef &def, Setup &s,
                       SpanLog *log = nullptr);

/** What the inputs imply for the correctness checks. */
struct Expectation
{
    /** Every LPA the warm-up and the stream write. */
    Shadow written;
    /** Read pages whose LPA nothing has written yet (served unmapped). */
    uint64_t unwritten_read_pages = 0;
};

Expectation expect(const Setup &s);

/**
 * End-of-run sweep: every written LPA must resolve through
 * Ssd::oraclePpa. Run it only after the metrics are captured: the
 * oracle's translation touches FTL caches (DFTL's demand cache,
 * LeaFTL's group residency) and channel time.
 * @return LPAs the oracle missed; @a checked counts the probes.
 */
uint64_t sweepOracle(leaftl::Ssd &ssd, const Shadow &written,
                     uint64_t &checked);

} // namespace perfbench
