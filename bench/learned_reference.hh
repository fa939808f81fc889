/**
 * @file
 * Reference implementation of the per-group segment merge and
 * compaction as it existed before the word-mask rewrite, kept
 * verbatim so tests/test_group_equiv.cc can pin the mask-based
 * Group to the old observable behavior step by step:
 *
 *   - RefGroup: segments reconstructed into heap-backed Bitmaps over
 *     the union range of each (entry, victim) pair and walked one bit
 *     at a time, a linear victim scan per level, and a single-pass
 *     compact() (the new Group::compact() repeats Group::compactPass()
 *     to a fixed point; one RefGroup::compact() equals one
 *     compactPass()).
 *
 * Not used by the simulator itself (and deliberately outside
 * src/learned/, which the learned-bitmap lint rule polices).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "learned/crb.hh"
#include "learned/group.hh"
#include "learned/plr.hh"
#include "learned/segment.hh"
#include "util/bitmap.hh"
#include "util/common.hh"

namespace leaftl
{

/** The old Bitmap-based merge scratch, verbatim. */
struct RefMergeScratch
{
    Bitmap bm_new;                    ///< New segment's members.
    Bitmap bm_old;                    ///< Victim's members.
    std::vector<uint8_t> stolen;      ///< Offsets taken from a victim.
    std::vector<SegEntry> conflicts;  ///< Range-conflicting survivors.
    std::vector<Crb::SegId> emptied;  ///< Runs emptied by CRB dedup.
};

/** The old Bitmap-based Group, verbatim (public API subset). */
class RefGroup
{
  public:
    void update(const FittedSegment &fs, RefMergeScratch &scratch);
    std::optional<GroupLookup>
    lookup(uint8_t off, const SegEntry **top_hit = nullptr) const;
    bool hasLpa(const SegEntry &e, uint8_t off) const;
    void compact(RefMergeScratch &scratch);

    size_t numLevels() const { return levels_.size(); }
    size_t numSegments() const { return num_segs_; }
    size_t numApproximate() const { return num_approx_; }

    size_t
    memoryBytes() const
    {
        return num_segs_ * Segment::kEncodedBytes + crb_.sizeBytes();
    }

    const Crb &crb() const { return crb_; }

    template <typename Fn>
    void
    forEachSegment(Fn &&fn) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            for (const SegEntry &e : levels_[li].segs)
                fn(e, li);
        }
    }

    void checkInvariants() const;
    void restoreRaw(size_t level, const Segment &seg,
                    const std::vector<uint8_t> &run);

  private:
    struct Level
    {
        std::vector<SegEntry> segs; ///< Sorted by S, non-overlapping.
    };

    void segmentBits(const SegEntry &e, uint8_t start, uint8_t end,
                     Bitmap &bm) const;
    void insertAt(size_t level_idx, const SegEntry &entry,
                  RefMergeScratch &scratch);
    bool tryInsertAt(size_t level_idx, const SegEntry &entry,
                     RefMergeScratch &scratch);
    void mergeVictims(size_t level_idx, const SegEntry &entry,
                      bool detach_conflicts, RefMergeScratch &scratch);
    void pushVictimDown(size_t from_level, const SegEntry &victim);
    void removeSegmentById(Crb::SegId id);
    void insertSorted(Level &level, const SegEntry &entry);
    void dropEmptyLevels();

    void
    countInsert(const SegEntry &e)
    {
        num_segs_++;
        if (e.seg.approximate())
            num_approx_++;
    }

    void
    countErase(const SegEntry &e)
    {
        num_segs_--;
        if (e.seg.approximate())
            num_approx_--;
    }

    std::vector<Level> levels_; ///< [0] is the topmost (newest).
    Crb crb_;
    Crb::SegId next_id_ = 1;
    uint32_t num_segs_ = 0;
    uint32_t num_approx_ = 0;
};

namespace ref_detail
{

/** Binary search: index of the segment covering @a off, or -1. */
inline int
findCovering(const std::vector<SegEntry> &segs, uint8_t off)
{
    int lo = 0, hi = static_cast<int>(segs.size()) - 1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        const Segment &s = segs[mid].seg;
        if (off < s.slpa()) {
            hi = mid - 1;
        } else if (off > s.endOff()) {
            lo = mid + 1;
        } else {
            return mid;
        }
    }
    return -1;
}

} // namespace ref_detail

inline bool
RefGroup::hasLpa(const SegEntry &e, uint8_t off) const
{
    if (!e.seg.covers(off))
        return false;
    if (e.seg.approximate())
        return crb_.contains(e.id, off);
    return e.seg.hasLpaAccurate(off);
}

inline void
RefGroup::segmentBits(const SegEntry &e, uint8_t start, uint8_t end,
                   Bitmap &bm) const
{
    bm.resize(static_cast<uint32_t>(end - start) + 1);
    if (e.seg.approximate()) {
        for (uint8_t off : crb_.run(e.id)) {
            if (off >= start && off <= end)
                bm.set(off - start);
        }
    } else {
        const uint32_t d = e.seg.singlePoint() ? 1 : e.seg.stride();
        for (uint32_t off = e.seg.slpa(); off <= e.seg.endOff(); off += d) {
            if (off >= start && off <= end)
                bm.set(off - start);
            if (e.seg.singlePoint())
                break;
        }
    }
}

inline void
RefGroup::insertSorted(Level &level, const SegEntry &entry)
{
    auto it = std::lower_bound(
        level.segs.begin(), level.segs.end(), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    level.segs.insert(it, entry);
    countInsert(entry);
}

inline void
RefGroup::mergeVictims(size_t level_idx, const SegEntry &entry,
                    bool detach_conflicts, RefMergeScratch &scratch)
{
    Level &level = levels_[level_idx];
    scratch.conflicts.clear();

    // Locate the window of victims whose ranges intersect the entry.
    size_t i = 0;
    while (i < level.segs.size()) {
        SegEntry &victim = level.segs[i];
        if (!entry.seg.overlaps(victim.seg)) {
            i++;
            continue;
        }

        // Algorithm 2: reconstruct both into bitmaps over the union
        // range, subtract the new segment's members from the victim.
        const uint8_t start =
            std::min(entry.seg.slpa(), victim.seg.slpa());
        const uint8_t end =
            std::max(entry.seg.endOff(), victim.seg.endOff());
        segmentBits(entry, start, end, scratch.bm_new);
        segmentBits(victim, start, end, scratch.bm_old);
        Bitmap &bm_new = scratch.bm_new;
        Bitmap &bm_old = scratch.bm_old;

        // For approximate victims the CRB insert already stole the
        // overwritten offsets, so the subtraction is mostly a no-op
        // there; accurate victims are trimmed here.
        scratch.stolen.clear();
        for (uint32_t b = 0; b < bm_old.size(); b++) {
            if (bm_old.test(b) && bm_new.test(b))
                scratch.stolen.push_back(static_cast<uint8_t>(start + b));
        }
        bm_old.subtract(bm_new);

        if (bm_old.none()) {
            // Victim fully superseded: remove it (Algorithm 1 l.11-12).
            if (victim.seg.approximate())
                crb_.removeRun(victim.id);
            countErase(victim);
            level.segs.erase(level.segs.begin() + i);
            continue;
        }

        // Trim the victim's range; K and I are never touched.
        const uint8_t first = static_cast<uint8_t>(start + bm_old.firstSet());
        const uint8_t last = static_cast<uint8_t>(start + bm_old.lastSet());
        victim.seg.trim(first, last);
        if (victim.seg.approximate() && !scratch.stolen.empty())
            crb_.removeOffsets(victim.id, scratch.stolen);

        if (entry.seg.overlaps(victim.seg)) {
            // Range still interleaves: the victim cannot share a sorted
            // run with the entry (Algorithm 1 lines 13-16).
            scratch.conflicts.push_back(victim);
            if (detach_conflicts) {
                countErase(victim);
                level.segs.erase(level.segs.begin() + i);
                continue;
            }
        }
        i++;
    }
}

inline void
RefGroup::pushVictimDown(size_t from_level, const SegEntry &victim)
{
    const size_t below = from_level + 1;
    if (below >= levels_.size()) {
        levels_.emplace_back();
        insertSorted(levels_.back(), victim);
        return;
    }
    // If the next level has no range conflict with the victim, it can
    // join that sorted run; otherwise it gets a dedicated level to
    // avoid recursive pops (and to preserve recency ordering).
    bool conflict = false;
    for (const SegEntry &e : levels_[below].segs) {
        if (e.seg.overlaps(victim.seg)) {
            conflict = true;
            break;
        }
    }
    if (conflict) {
        levels_.insert(levels_.begin() + below, Level{});
        insertSorted(levels_[below], victim);
    } else {
        insertSorted(levels_[below], victim);
    }
}

inline void
RefGroup::insertAt(size_t level_idx, const SegEntry &entry,
                RefMergeScratch &scratch)
{
    while (levels_.size() <= level_idx)
        levels_.emplace_back();

    mergeVictims(level_idx, entry, /*detach_conflicts=*/true, scratch);
    // Pop detached victims below. Order within the new level is
    // restored by sorted insertion. pushVictimDown never merges, so
    // scratch.conflicts is stable across the loop.
    for (const SegEntry &victim : scratch.conflicts)
        pushVictimDown(level_idx, victim);

    insertSorted(levels_[level_idx], entry);
}

inline bool
RefGroup::tryInsertAt(size_t level_idx, const SegEntry &entry,
                   RefMergeScratch &scratch)
{
    mergeVictims(level_idx, entry, /*detach_conflicts=*/false, scratch);
    if (!scratch.conflicts.empty())
        return false;
    insertSorted(levels_[level_idx], entry);
    return true;
}

inline void
RefGroup::update(const FittedSegment &fs, RefMergeScratch &scratch)
{
    SegEntry entry;
    entry.seg = fs.seg;

    if (fs.seg.approximate()) {
        entry.id = next_id_++;
        scratch.emptied.clear();
        crb_.insertRun(entry.id, fs.offs, scratch.emptied);
        // Runs emptied by deduplication belong to fully superseded
        // approximate segments; drop them wherever they live.
        for (Crb::SegId dead : scratch.emptied)
            removeSegmentById(dead);
    }

    insertAt(0, entry, scratch);
}

inline void
RefGroup::removeSegmentById(Crb::SegId id)
{
    for (Level &level : levels_) {
        for (size_t i = 0; i < level.segs.size(); i++) {
            if (level.segs[i].id == id) {
                countErase(level.segs[i]);
                level.segs.erase(level.segs.begin() + i);
                return;
            }
        }
    }
}

inline std::optional<GroupLookup>
RefGroup::lookup(uint8_t off, const SegEntry **top_hit) const
{
    if (top_hit)
        *top_hit = nullptr;
    for (size_t li = 0; li < levels_.size(); li++) {
        const int idx = ref_detail::findCovering(levels_[li].segs, off);
        if (idx < 0)
            continue;
        const SegEntry &e = levels_[li].segs[idx];
        if (!hasLpa(e, off))
            continue;
        GroupLookup res;
        res.ppa = e.seg.predict(off);
        res.approximate = e.seg.approximate();
        res.levels_visited = static_cast<uint32_t>(li + 1);
        if (top_hit && li == 0)
            *top_hit = &e;
        return res;
    }
    return std::nullopt;
}

inline void
RefGroup::compact(RefMergeScratch &scratch)
{
    // Phase 1: subtract every newer segment's members from every
    // older segment below it (the paper's seg_update-into-lower-level
    // cascade). Fully superseded old segments die here; partly
    // superseded ones are trimmed. Placement is untouched, so newer
    // segments stay above the stale interior members of accurate
    // victims they shadow.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        for (size_t i = 0; i < levels_[li].segs.size(); i++) {
            const SegEntry entry = levels_[li].segs[i];
            for (size_t lj = li + 1; lj < levels_.size(); lj++)
                mergeVictims(lj, entry, /*detach_conflicts=*/false,
                             scratch);
        }
    }

    // Phase 2: sink segments downward wherever no range conflict
    // remains; interleaved member-disjoint segments stay on their
    // levels (they cannot share a sorted run). The merge only touches
    // the level below, so the entry can be sunk before its upper-level
    // copy is erased.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        Level &upper = levels_[li];
        for (size_t i = 0; i < upper.segs.size();) {
            const SegEntry entry = upper.segs[i];
            if (tryInsertAt(li + 1, entry, scratch)) {
                countErase(upper.segs[i]);
                upper.segs.erase(upper.segs.begin() + i);
            } else {
                i++;
            }
        }
    }
    dropEmptyLevels();
}

inline void
RefGroup::dropEmptyLevels()
{
    levels_.erase(std::remove_if(levels_.begin(), levels_.end(),
                                 [](const Level &l) {
                                     return l.segs.empty();
                                 }),
                  levels_.end());
}

inline void
RefGroup::restoreRaw(size_t level, const Segment &seg,
                  const std::vector<uint8_t> &run)
{
    while (levels_.size() <= level)
        levels_.emplace_back();
    SegEntry entry;
    entry.seg = seg;
    if (seg.approximate()) {
        entry.id = next_id_++;
        crb_.restoreRun(entry.id, run);
    }
    insertSorted(levels_[level], entry);
}

inline void
RefGroup::checkInvariants() const
{
    size_t segs = 0, approx = 0;
    for (const Level &level : levels_) {
        for (size_t i = 0; i < level.segs.size(); i++) {
            const SegEntry &e = level.segs[i];
            segs++;
            approx += e.seg.approximate() ? 1 : 0;
            LEAFTL_ASSERT(e.seg.endOff() >= e.seg.slpa(),
                          "segment range inverted");
            if (i > 0) {
                const SegEntry &prev = level.segs[i - 1];
                LEAFTL_ASSERT(prev.seg.endOff() < e.seg.slpa(),
                              "level segments overlap or unsorted");
            }
            if (e.seg.approximate()) {
                const auto &run = crb_.run(e.id);
                LEAFTL_ASSERT(!run.empty(), "approx segment without CRB run");
                LEAFTL_ASSERT(run.front() >= e.seg.slpa() &&
                                  run.back() <= e.seg.endOff(),
                              "CRB run outside segment range");
            }
        }
    }
    LEAFTL_ASSERT(segs == num_segs_, "segment counter out of sync");
    LEAFTL_ASSERT(approx == num_approx_, "approximate counter out of sync");
    crb_.checkAccounting();
}

} // namespace leaftl
