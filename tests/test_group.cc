/**
 * @file
 * Tests for the per-group log-structured mapping table (§3.4, §3.7,
 * Algorithms 1 & 2), including the paper's Fig. 13 timeline, a
 * randomized differential test against a shadow map, and the
 * compaction fixed-point properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "group_test_util.hh"
#include "learned/group.hh"
#include "learned/plr.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/** Learn a run of (off, consecutive PPAs from p0) into the group. */
void
learnRun(Group &group, const std::vector<uint8_t> &offs, Ppa p0,
         uint32_t gamma, std::map<uint8_t, Ppa> *truth = nullptr)
{
    std::vector<PlrPoint> pts;
    Ppa ppa = p0;
    for (uint8_t off : offs) {
        pts.push_back({off, ppa});
        if (truth)
            (*truth)[off] = ppa;
        ppa++;
    }
    for (const auto &fs : fitGroupSegments(pts, gamma))
        group.update(fs);
}

std::vector<uint8_t>
range(uint32_t first, uint32_t last, uint32_t step = 1)
{
    std::vector<uint8_t> offs;
    for (uint32_t o = first; o <= last; o += step)
        offs.push_back(static_cast<uint8_t>(o));
    return offs;
}

void
verifyAgainstTruth(const Group &group, const std::map<uint8_t, Ppa> &truth,
                   uint32_t gamma)
{
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const auto res = group.lookup(static_cast<uint8_t>(off));
        auto it = truth.find(static_cast<uint8_t>(off));
        if (it == truth.end()) {
            EXPECT_FALSE(res.has_value())
                << "phantom mapping for off " << off;
            continue;
        }
        ASSERT_TRUE(res.has_value()) << "lost mapping for off " << off;
        const int64_t err = static_cast<int64_t>(res->ppa) -
                            static_cast<int64_t>(it->second);
        const int64_t bound = res->approximate ? gamma : 0;
        EXPECT_LE(std::llabs(err), bound) << "off " << off;
    }
}

TEST(Group, EmptyLookupFindsNothing)
{
    Group g;
    EXPECT_FALSE(g.lookup(0).has_value());
    EXPECT_EQ(g.numLevels(), 0u);
    EXPECT_EQ(g.memoryBytes(), 0u);
}

TEST(Group, SingleSegmentLookup)
{
    Group g;
    std::map<uint8_t, Ppa> truth;
    learnRun(g, range(0, 63), 1000, 0, &truth);
    EXPECT_EQ(g.numLevels(), 1u);
    EXPECT_EQ(g.numSegments(), 1u);
    verifyAgainstTruth(g, truth, 0);
}

TEST(Group, PaperFigure13Timeline)
{
    // The worked example of §3.7 (gamma chosen so [75,82] and [72,80]
    // are approximate).
    Group g;
    const uint32_t gamma = 8;

    // T0: initial segment [0, 63].
    learnRun(g, range(0, 63), 0, 0);
    EXPECT_EQ(g.numLevels(), 1u);

    // T1: update LPAs 200-255: no overlap, stays at level 0.
    learnRun(g, range(200, 255), 1000, 0);
    EXPECT_EQ(g.numLevels(), 1u);
    EXPECT_EQ(g.numSegments(), 2u);

    // T2: update LPAs 16-31: overlaps [0,63], victim drops one level.
    learnRun(g, range(16, 31), 2000, 0);
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_EQ(g.numSegments(), 3u);

    // T3: approximate segment {75, 78, 82}.
    learnRun(g, {75, 78, 82}, 3000, gamma);
    // T4: approximate segment {72, 73, 80}: ranges interleave, the
    // older approximate segment moves down.
    learnRun(g, {72, 73, 80}, 4000, gamma);
    EXPECT_GE(g.numLevels(), 2u);

    // T5: lookup LPA 50 resolves through the lower level (old [0,63]).
    auto r50 = g.lookup(50);
    ASSERT_TRUE(r50.has_value());
    EXPECT_EQ(r50->ppa, 0u + 50);
    EXPECT_GE(r50->levels_visited, 2u);

    // T6: lookup LPA 78: inside [72,80]'s range but owned by the
    // {75,78,82} segment; the CRB must resolve it.
    auto r78 = g.lookup(78);
    ASSERT_TRUE(r78.has_value());
    EXPECT_TRUE(r78->approximate);
    const int64_t err78 =
        static_cast<int64_t>(r78->ppa) - static_cast<int64_t>(3001);
    EXPECT_LE(std::llabs(err78), static_cast<int64_t>(gamma));

    // T7: update LPAs 32-90: fully covers {72,73,80}, which dies.
    learnRun(g, range(32, 90), 5000, 0);
    auto r80 = g.lookup(80);
    ASSERT_TRUE(r80.has_value());
    EXPECT_EQ(r80->ppa, 5000u + (80 - 32));

    // T8: compaction reclaims dead segments and empty levels.
    const size_t before = g.memoryBytes();
    g.compact();
    EXPECT_LE(g.memoryBytes(), before);
    g.checkInvariants();

    // Post-compaction lookups are unchanged: LPA 50 was overwritten
    // at T7, LPA 5 still resolves through the original segment, LPA
    // 20 through the T2 segment.
    auto r50b = g.lookup(50);
    ASSERT_TRUE(r50b.has_value());
    EXPECT_EQ(r50b->ppa, 5000u + (50 - 32));
    auto r5 = g.lookup(5);
    ASSERT_TRUE(r5.has_value());
    EXPECT_EQ(r5->ppa, 0u + 5);
    auto r20 = g.lookup(20);
    ASSERT_TRUE(r20.has_value());
    EXPECT_EQ(r20->ppa, 2000u + (20 - 16));
}

TEST(Group, FullOverwriteRemovesVictim)
{
    Group g;
    learnRun(g, range(10, 20), 100, 0);
    EXPECT_EQ(g.numSegments(), 1u);
    learnRun(g, range(10, 20), 200, 0);
    // The old segment is fully superseded: removed at insert.
    EXPECT_EQ(g.numSegments(), 1u);
    EXPECT_EQ(g.numLevels(), 1u);
    auto r = g.lookup(15);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ppa, 205u);
}

TEST(Group, PartialOverlapTrimsVictimEdges)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(0, 50), 300, 0);
    // Victim's surviving range is [51, 100]; trimmed, stays sorted.
    EXPECT_EQ(g.numLevels(), 1u);
    auto r = g.lookup(75);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ppa, 100u + 75);
    auto r2 = g.lookup(25);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->ppa, 300u + 25);
    g.checkInvariants();
}

TEST(Group, InteriorOverlapPopsVictimDown)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(40, 60), 300, 0); // Interior: victim interleaves.
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_EQ(g.lookup(50)->ppa, 300u + 10);
    EXPECT_EQ(g.lookup(10)->ppa, 100u + 10);
    EXPECT_EQ(g.lookup(90)->ppa, 100u + 90);
    g.checkInvariants();
}

TEST(Group, StrideVictimSurvivesInterleavedSinglePoints)
{
    Group g;
    // Stride-2 accurate segment over evens.
    learnRun(g, range(0, 40, 2), 100, 0);
    // Overwrite odd offsets: ranges interleave, members disjoint.
    learnRun(g, range(1, 39, 2), 300, 0);
    for (uint32_t off = 0; off <= 40; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  100u + off / 2);
    for (uint32_t off = 1; off <= 39; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  300u + (off - 1) / 2);
    // Compaction cannot merge member-disjoint interleaved segments,
    // but must not corrupt them either.
    g.compact();
    g.checkInvariants();
    for (uint32_t off = 0; off <= 40; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  100u + off / 2);
}

TEST(Group, CompactionMergesShadowedLevels)
{
    Group g;
    std::map<uint8_t, Ppa> truth;
    // Layered full overwrites of the same range: compaction should
    // collapse everything to one level.
    for (int layer = 0; layer < 6; layer++)
        learnRun(g, range(0, 63), 1000 * (layer + 1), 0, &truth);
    learnRun(g, range(10, 30), 50000, 0, &truth);
    g.compact();
    EXPECT_LE(g.numLevels(), 2u);
    verifyAgainstTruth(g, truth, 0);
    g.checkInvariants();
}

TEST(Group, MemoryAccountingTracksSegmentsAndCrb)
{
    Group g;
    learnRun(g, range(0, 63), 0, 0);
    EXPECT_EQ(g.memoryBytes(), 8u);
    learnRun(g, {70, 72, 75, 76}, 100, 8); // Approximate + CRB run.
    EXPECT_EQ(g.numApproximate(), 1u);
    EXPECT_EQ(g.memoryBytes(), 16u + 4 + 1);
}

TEST(Group, LevelsVisitedCountsSearchDepth)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(40, 60), 300, 0);
    EXPECT_EQ(g.lookup(50)->levels_visited, 1u);
    EXPECT_EQ(g.lookup(10)->levels_visited, 2u);
}

class GroupRandomSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(GroupRandomSweep, DifferentialAgainstShadowMap)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()));
    Group g;
    std::map<uint8_t, Ppa> truth;
    Ppa next_ppa = 10000;

    for (int round = 0; round < 60; round++) {
        // Generate a random sorted batch (mix of runs and points).
        std::vector<uint8_t> offs;
        uint32_t off = rng.nextBounded(32);
        while (off < kGroupSpan && offs.size() < 64) {
            offs.push_back(static_cast<uint8_t>(off));
            off += 1 + rng.nextBounded(7);
        }
        if (offs.empty())
            continue;
        learnRun(g, offs, next_ppa, gamma, &truth);
        next_ppa += static_cast<Ppa>(offs.size()) + rng.nextBounded(100);

        if (round % 17 == 16) {
            g.compact();
        }
        g.checkInvariants();
    }
    verifyAgainstTruth(g, truth, gamma);
    g.compact();
    g.checkInvariants();
    verifyAgainstTruth(g, truth, gamma);
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, GroupRandomSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 15)));

TEST(Group, SettledUntilMutated)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(40, 60), 300, 0);
    EXPECT_FALSE(g.settled());
    g.compact();
    EXPECT_TRUE(g.settled());
    learnRun(g, range(10, 20), 500, 0);
    EXPECT_FALSE(g.settled());
    g.compact();
    EXPECT_TRUE(g.settled());
    g.restoreRaw(0, Segment::makeSinglePoint(200, 900), {});
    EXPECT_FALSE(g.settled());
}

TEST(Group, OneCompactionPassIsNotAFixedPoint)
{
    // An accurate victim over 0..10 below B = {1..4} below A = {0, 5}:
    // Phase 1 subtracts A then B, leaving the victim at [5, 10] with 5
    // shadowed by A; only a second subtraction of A trims it to
    // [6, 10]. compact() must keep going until a pass changes nothing.
    Group g;
    std::map<uint8_t, Ppa> truth;
    learnRun(g, range(0, 10), 100, 0, &truth);
    learnRun(g, range(1, 4), 200, 0, &truth);
    learnRun(g, {0, 5}, 300, 0, &truth);
    ASSERT_EQ(g.numLevels(), 3u);

    Group single = g;
    MergeScratch scratch;
    EXPECT_TRUE(single.compactPass(scratch));
    EXPECT_TRUE(single.compactPass(scratch));

    EXPECT_GE(g.compact(), 3u);
    EXPECT_FALSE(g.compactPass(scratch));
    verifyAgainstTruth(g, truth, 0);
    g.checkInvariants();
}

/**
 * Randomized fragmented group: stride-1 runs, strided runs, single
 * points and irregular (approximate when gamma > 0) batches, with the
 * exact truth recorded.
 */
Group
randomGroup(Rng &rng, uint32_t gamma, std::map<uint8_t, Ppa> &truth)
{
    Group g;
    Ppa next_ppa = 10000;
    for (int round = 0; round < 50; round++) {
        const uint32_t start = static_cast<uint32_t>(rng.nextBounded(240));
        std::vector<uint8_t> offs;
        switch (rng.nextBounded(4)) {
        case 0:
            offs = range(start, std::min<uint32_t>(
                                    255, start + rng.nextBounded(80)));
            break;
        case 1:
            offs = range(start, 255,
                         2 + static_cast<uint32_t>(rng.nextBounded(6)));
            offs.resize(std::min<size_t>(offs.size(), 30));
            break;
        case 2:
            offs = {static_cast<uint8_t>(start)};
            break;
        default:
            for (uint32_t off = start; off < kGroupSpan && offs.size() < 40;
                 off += 1 + static_cast<uint32_t>(rng.nextBounded(7)))
                offs.push_back(static_cast<uint8_t>(off));
            break;
        }
        learnRun(g, offs, next_ppa, gamma, &truth);
        next_ppa += static_cast<Ppa>(offs.size()) + rng.nextBounded(100);
    }
    return g;
}

class GroupCompactionProperties
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(GroupCompactionProperties, FixedPointIsIdempotentAndExact)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()) * 6364136223846793005ull + gamma);
    std::map<uint8_t, Ppa> truth;
    const Group g = randomGroup(rng, gamma, truth);
    verifyAgainstTruth(g, truth, gamma);

    // Fixed point, reached within a bound that turns a livelocked
    // change test into a loud failure.
    Group once = g;
    const uint32_t passes = once.compact();
    EXPECT_LE(passes, g.numSegments() + g.numLevels() + 1);
    EXPECT_TRUE(once.settled());
    once.checkInvariants();

    // Exact before and after: every offset resolves to the shadow
    // map's PPA (within gamma for approximate hits), and compaction
    // changes no answer.
    verifyAgainstTruth(once, truth, gamma);
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const auto a = g.lookup(static_cast<uint8_t>(off));
        const auto b = once.lookup(static_cast<uint8_t>(off));
        ASSERT_EQ(a.has_value(), b.has_value()) << off;
        if (a) {
            EXPECT_EQ(a->ppa, b->ppa) << off;
            EXPECT_EQ(a->approximate, b->approximate) << off;
        }
    }

    // compact(compact(g)) == compact(g), byte for byte.
    Group twice = once;
    EXPECT_EQ(twice.compact(), 1u);
    EXPECT_EQ(test::groupBlob(twice), test::groupBlob(once));
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, GroupCompactionProperties,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 25)));

} // namespace
} // namespace leaftl
