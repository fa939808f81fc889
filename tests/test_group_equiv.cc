/**
 * @file
 * Fuzz-equivalence suite pinning the word-mask segment merge to the
 * Bitmap-based implementation it replaced (kept verbatim in
 * bench/learned_reference.hh), the same way tests/test_device_equiv.cc
 * pins the flat device containers:
 *
 *   - random update() sequences mixing accurate stride-1 runs,
 *     accurate strided runs, single points and approximate runs (whose
 *     CRB insert deduplicates offsets owned by older runs);
 *   - single compaction passes: Group::compactPass() against one
 *     RefGroup::compact();
 *   - the fixed-point Group::compact() against RefGroup::compact()
 *     repeated until its state stops changing.
 *
 * After every step both groups must serialize byte-identically and
 * answer every offset identically. All sequences are seeded Rng
 * streams: failures reproduce exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "group_test_util.hh"
#include "learned/group.hh"
#include "learned/plr.hh"
#include "learned_reference.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

using test::groupBlob;

/** Segment kinds the fuzz must reach. */
struct KindTally
{
    uint32_t stride1 = 0;
    uint32_t strided = 0;
    uint32_t single = 0;
    uint32_t approximate = 0;

    void
    add(const Segment &seg)
    {
        if (seg.approximate())
            approximate++;
        else if (seg.singlePoint())
            single++;
        else if (seg.stride() == 1)
            stride1++;
        else
            strided++;
    }
};

/** One random learn batch for a group, fitted at @a gamma. */
std::vector<FittedSegment>
randomBatch(Rng &rng, uint32_t gamma, Ppa &next_ppa)
{
    std::vector<PlrPoint> pts;
    auto point = [&](uint32_t off, uint32_t i) {
        pts.push_back({static_cast<uint8_t>(off), next_ppa + i});
    };
    const uint32_t start =
        static_cast<uint32_t>(rng.nextBounded(kGroupSpan));
    switch (rng.nextBounded(4)) {
    case 0: { // Stride-1 run.
        const uint32_t len =
            1 + static_cast<uint32_t>(
                    rng.nextBounded(std::min(96u, kGroupSpan - start)));
        for (uint32_t i = 0; i < len; i++)
            point(start + i, i);
        break;
    }
    case 1: { // Strided run (consecutive PPAs: slope 1/d).
        const uint32_t d = 2 + static_cast<uint32_t>(rng.nextBounded(7));
        uint32_t i = 0;
        for (uint32_t off = start; off < kGroupSpan && i < 40; off += d)
            point(off, i++);
        break;
    }
    case 2: // Single point.
        point(start, 0);
        break;
    default: { // Irregular gaps: approximate when gamma allows.
        uint32_t i = 0;
        for (uint32_t off = start; off < kGroupSpan && i < 48;
             off += 1 + static_cast<uint32_t>(rng.nextBounded(6)))
            point(off, i++);
        break;
    }
    }
    next_ppa += static_cast<Ppa>(pts.size()) + rng.nextBounded(50);
    return fitGroupSegments(pts, gamma);
}

/** Byte-identical state and identical answers for every offset. */
void
expectSame(const Group &group, const RefGroup &ref, const char *step)
{
    ASSERT_EQ(groupBlob(group), groupBlob(ref)) << "after " << step;
    EXPECT_EQ(group.memoryBytes(), ref.memoryBytes()) << step;
    EXPECT_EQ(group.numApproximate(), ref.numApproximate()) << step;
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const auto a = group.lookup(static_cast<uint8_t>(off));
        const auto b = ref.lookup(static_cast<uint8_t>(off));
        ASSERT_EQ(a.has_value(), b.has_value()) << step << " off " << off;
        if (a) {
            EXPECT_EQ(a->ppa, b->ppa) << step << " off " << off;
            EXPECT_EQ(a->approximate, b->approximate) << step;
            EXPECT_EQ(a->levels_visited, b->levels_visited) << step;
        }
    }
}

class GroupMaskEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(GroupMaskEquivalence, UpdatesAndSinglePassesMatchBitmapReference)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()) * 2654435761u + gamma);
    Group group;
    MergeScratch scratch;
    RefGroup ref;
    RefMergeScratch ref_scratch;
    KindTally kinds;
    Ppa next_ppa = 1000;

    for (int step = 0; step < 160; step++) {
        for (const FittedSegment &fs : randomBatch(rng, gamma, next_ppa)) {
            kinds.add(fs.seg);
            group.update(fs, scratch);
            ref.update(fs, ref_scratch);
            ASSERT_NO_FATAL_FAILURE(expectSame(group, ref, "update"));
        }
        if (rng.nextBounded(8) == 0) {
            group.compactPass(scratch);
            ref.compact(ref_scratch);
            ASSERT_NO_FATAL_FAILURE(
                expectSame(group, ref, "compact pass"));
        }
    }
    group.checkInvariants();
    ref.checkInvariants();

    // The fuzz reached every segment kind the merge distinguishes
    // (approximate ones need gamma > 0).
    EXPECT_GT(kinds.stride1, 0u);
    EXPECT_GT(kinds.strided, 0u);
    EXPECT_GT(kinds.single, 0u);
    if (gamma > 0) {
        EXPECT_GT(kinds.approximate, 0u);
    }
}

TEST_P(GroupMaskEquivalence, FixedPointMatchesRepeatedReferencePasses)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()) * 40503u + 11 + gamma);
    Group group;
    MergeScratch scratch;
    RefGroup ref;
    RefMergeScratch ref_scratch;
    Ppa next_ppa = 1;

    for (int round = 0; round < 6; round++) {
        for (int step = 0; step < 30; step++) {
            for (const FittedSegment &fs :
                 randomBatch(rng, gamma, next_ppa)) {
                group.update(fs, scratch);
                ref.update(fs, ref_scratch);
            }
        }
        ASSERT_NO_FATAL_FAILURE(expectSame(group, ref, "updates"));

        // Repeat the reference's single pass until its state stops
        // changing; the fixed-point compact must land on that state.
        std::vector<uint8_t> before;
        do {
            before = groupBlob(ref);
            ref.compact(ref_scratch);
        } while (groupBlob(ref) != before);
        group.compact(scratch);
        ASSERT_NO_FATAL_FAILURE(expectSame(group, ref, "fixed point"));
    }
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, GroupMaskEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 6)));

} // namespace
} // namespace leaftl
