/**
 * @file
 * The benchmark's four workloads: device configuration, seeded input
 * generation (warm-up page list plus the measured request stream), and
 * the correctness shadow of every LPA the inputs write.
 *
 * The warm-up is fixed and the stream comes only from the seed, so
 * one seed always gives the same inputs and therefore the same
 * simulated results.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "workload/request.hh"

namespace perfbench
{

/** One benchmark workload on the paper preset (LeaFTL uses gamma 4). */
struct WorkloadDef
{
    const char *name;
    leaftl::FtlKind ftl;
    /** LPA footprint of the stream and of the warm-up passes. */
    uint64_t working_set_pages;
    /** Requests in the measured phase (a cap when write_pages is set). */
    uint64_t requests;
    /**
     * When nonzero, the stream ends with the request that brings its
     * written pages to this count. LeaFTL compacts every 2048 host
     * writes and a compaction walk over every group is most of its
     * host time, so a fixed write count keeps the number of
     * compactions the same for every seed.
     */
    uint64_t write_pages = 0;
    /**
     * Cold pages written once, sequentially, just above the working
     * set at the start of the warm-up; the stream never touches them.
     */
    uint64_t cold_pages = 0;
    /** Pages written sequentially over the working set (wrapping). */
    uint64_t seq_warmup_pages = 0;
    /**
     * End the warm-up with one pass over the working set in the shape
     * of Runner::prefillMixed, which leaves a fragmented learned table.
     */
    bool mixed_warmup = false;
    /**
     * Learn journal and periodic snapshots on, plus a crash and
     * recovery at one third and two thirds of the stream.
     */
    bool durability = false;
};

const std::vector<WorkloadDef> &workloads();

/** @return nullptr when @a name is not a workload. */
const WorkloadDef *findWorkload(const std::string &name);

/** Paper preset: 16 ch x 256 blk x 256 pg, 2 MiB DRAM, 8 MiB buffer. */
leaftl::SsdConfig deviceConfig(const WorkloadDef &def);

/** Request indices at which the device crashes and recovers. */
std::vector<uint64_t> crashPoints(const WorkloadDef &def);

/**
 * Warm-up page writes, in order: @a def's cold region, its
 * sequential pages, then its mixed pass (55% sequential, 25% strided,
 * 20% scattered in a fixed permutation, so every LPA of the working
 * set ends up written). The warm-up does not depend on the seed:
 * every seed's stream starts from the same device state.
 */
std::vector<leaftl::Lpa> warmupPages(const WorkloadDef &def);

/**
 * The measured stream, pulled through WorkloadSource::next and cut at
 * @a def's write-page count when it has one. Arrivals are relative to
 * the end of the warm-up.
 */
std::vector<leaftl::IoRequest> requestStream(const WorkloadDef &def,
                                             uint64_t seed);

/**
 * Set of LPAs written so far, wrapped modulo the host capacity the
 * way Ssd::submit wraps them.
 */
class Shadow
{
  public:
    explicit Shadow(uint64_t host_pages) : written_(host_pages, 0) {}

    uint64_t wrap(uint64_t lpa) const { return lpa % written_.size(); }
    void mark(uint64_t lpa) { written_[wrap(lpa)] = 1; }
    bool has(uint64_t lpa) const { return written_[wrap(lpa)] != 0; }

    /** Visit every written LPA in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint64_t lpa = 0; lpa < written_.size(); lpa++)
            if (written_[lpa])
                fn(static_cast<leaftl::Lpa>(lpa));
    }

  private:
    std::vector<uint8_t> written_;
};

} // namespace perfbench
