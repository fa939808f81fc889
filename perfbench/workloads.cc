#include "workloads.hh"

#include <algorithm>

#include "flash/presets.hh"
#include "util/rng.hh"
#include "workload/msr_models.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

using leaftl::FtlKind;
using leaftl::MixSpec;

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {.name = "mix",
         .ftl = FtlKind::LeaFTL,
         .working_set_pages = 262144,
         .requests = 400000,
         .write_pages = 12 * 2048 + 1024,
         .mixed_warmup = true},
        {.name = "zipf-read",
         .ftl = FtlKind::LeaFTL,
         .working_set_pages = 262144,
         .requests = 2000000,
         .write_pages = 9 * 2048 + 1024,
         .mixed_warmup = true},
        // A sequentially written device, filled to just past the GC
        // threshold (85% of the 1048576 raw pages programmed): the
        // cold region covers the host space above the working set.
        {.name = "src2-gc",
         .ftl = FtlKind::LeaFTL,
         .working_set_pages = 262144,
         .requests = 300000,
         .cold_pages = 576716,
         .seq_warmup_pages = 262144 + 60000,
         .durability = true},
        {.name = "src2-dftl",
         .ftl = FtlKind::DFTL,
         .working_set_pages = 655360,
         .requests = 1000000,
         .mixed_warmup = true},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &def : workloads())
        if (name == def.name)
            return &def;
    return nullptr;
}

leaftl::SsdConfig
deviceConfig(const WorkloadDef &def)
{
    const leaftl::DevicePreset *preset = leaftl::findDevicePreset("paper");
    leaftl::SsdConfig cfg;
    cfg.geometry = preset->geometry;
    cfg.dram_bytes = preset->dram_bytes;
    cfg.write_buffer_bytes = preset->write_buffer_bytes;
    cfg.ftl = def.ftl;
    cfg.gamma = 4;
    // The interval leaftl_sim derives for a preset device.
    cfg.compaction_interval =
        std::max<uint64_t>(cfg.geometry.totalPages() / 512, 2048);
    if (def.durability) {
        cfg.journal_threshold_bytes = 256ull << 10;
        cfg.snapshot_interval_writes = 16384;
    }
    return cfg;
}

std::vector<uint64_t>
crashPoints(const WorkloadDef &def)
{
    if (!def.durability)
        return {};
    return {def.requests / 3, 2 * def.requests / 3};
}

namespace
{

/** The stream's generator spec; the same shapes leaftl_sim names. */
MixSpec
streamSpec(const WorkloadDef &def, uint64_t seed)
{
    const std::string name = def.name;
    MixSpec spec;
    if (name == "mix" || name == "zipf-read") {
        spec.working_set_pages = def.working_set_pages;
        spec.num_requests = def.requests;
        spec.p_seq = 0.0;
        spec.p_stride = 0.0;
        spec.p_log = 0.0;
        if (name == "mix") {
            // synthetic:mix at 50% writes.
            spec.name = "synthetic:mix";
            spec.p_seq = 0.3;
            spec.p_stride = 0.1;
            spec.p_log = 0.1;
            spec.zipf_theta = 0.9;
            spec.read_ratio = 0.5;
        } else {
            // synthetic:zipf at 95% reads.
            spec.name = "synthetic:zipf";
            spec.zipf_theta = 0.99;
            spec.read_ratio = 0.95;
        }
    } else {
        spec = leaftl::msrSpec("MSR-src2", def.working_set_pages,
                               def.requests);
    }
    spec.seed = seed;
    return spec;
}

} // namespace

std::vector<leaftl::Lpa>
warmupPages(const WorkloadDef &def)
{
    const uint64_t ws = def.working_set_pages;
    std::vector<leaftl::Lpa> pages;
    pages.reserve(def.cold_pages + def.seq_warmup_pages + ws);
    for (uint64_t i = 0; i < def.cold_pages; i++)
        pages.push_back(static_cast<leaftl::Lpa>(ws + i));
    for (uint64_t i = 0; i < def.seq_warmup_pages; i++)
        pages.push_back(static_cast<leaftl::Lpa>(i % ws));
    if (!def.mixed_warmup)
        return pages;

    const uint64_t seq_end = ws * 55 / 100;
    const uint64_t stride_end = seq_end + ws / 4;
    for (uint64_t lpa = 0; lpa < seq_end; lpa++)
        pages.push_back(static_cast<leaftl::Lpa>(lpa));
    for (uint64_t start = seq_end; start < seq_end + 2; start++)
        for (uint64_t lpa = start; lpa < stride_end; lpa += 2)
            pages.push_back(static_cast<leaftl::Lpa>(lpa));
    const size_t scatter_begin = pages.size();
    for (uint64_t lpa = stride_end; lpa < ws; lpa++)
        pages.push_back(static_cast<leaftl::Lpa>(lpa));
    leaftl::Rng rng(0x5EEDF00Dull);
    for (size_t i = pages.size() - 1; i > scatter_begin; i--) {
        const size_t j =
            scatter_begin + rng.nextBounded(i - scatter_begin + 1);
        std::swap(pages[i], pages[j]);
    }
    return pages;
}

std::vector<leaftl::IoRequest>
requestStream(const WorkloadDef &def, uint64_t seed)
{
    leaftl::MixWorkload source(streamSpec(def, seed));
    std::vector<leaftl::IoRequest> requests;
    requests.reserve(def.requests);
    uint64_t written = 0;
    leaftl::IoRequest req;
    while ((!def.write_pages || written < def.write_pages) &&
           source.next(req)) {
        requests.push_back(req);
        if (req.op == leaftl::Op::Write)
            written += req.npages;
    }
    return requests;
}

} // namespace perfbench
