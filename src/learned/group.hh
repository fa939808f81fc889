/**
 * @file
 * Per-group log-structured mapping table (§3.4, §3.7, Algorithms 1&2).
 *
 * Each 256-LPA group owns a stack of levels. Level 0 holds the most
 * recently learned segments; lower levels hold older ones. Within a
 * level, segments are sorted by S and their [S, S+L] ranges never
 * overlap, so a level is searched with one binary search; across
 * levels, ranges may overlap and the topmost hit wins (newest mapping).
 *
 * Inserting a new segment merges it against overlapping victims
 * (Algorithm 2): the new segment's members and each victim's members
 * are reconstructed into group-absolute 256-bit masks, the new
 * members are subtracted, and the victims are trimmed, dropped when
 * empty, or popped to the next level when their range still
 * interleaves with the new segment (with a dedicated level created
 * when the next level also conflicts, avoiding recursion).
 *
 * Compaction (seg_compact) first subtracts every newer segment from
 * every older one below it, then sinks segments into lower levels
 * when no range conflict remains, reclaiming dead segments and empty
 * levels. One such pass is not idempotent (a trim or sink can enable
 * another), so compact() repeats it until a pass changes nothing; a
 * compacted group is then "settled" until the next update() or
 * restoreRaw(), and the table skips settled groups. Interleaved-but-
 * member-disjoint segments legitimately stay on separate levels (they
 * cannot share a sorted run).
 *
 * Hot-path design: member sets are four-word masks, so subtraction,
 * the stolen set (old & new, walked with ctz) and the trimmed range
 * (ctz/clz of old & ~new) are word operations instead of per-bit
 * calls; an accurate stride-1 segment fills its mask as word ranges,
 * and only other strides and CRB runs are set bit by bit. The entry's
 * mask is built once per merge, not per victim, and the victims of a
 * level are found by binary search. A caller-provided MergeScratch
 * holds the victim vectors (reused across learns, so the steady-state
 * learn path performs no heap allocation), segment / approximate
 * counts are maintained incrementally (numSegments(), numApproximate()
 * and memoryBytes() are O(1) reads), and segment visitation is a
 * template so reporting loops pay no std::function indirection.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "learned/crb.hh"
#include "learned/plr.hh"
#include "learned/segment.hh"
#include "util/common.hh"

namespace leaftl
{

/** Result of a group lookup. */
struct GroupLookup
{
    Ppa ppa;                 ///< Predicted PPA (exact if !approximate).
    bool approximate;        ///< True when served by an approximate segment.
    uint32_t levels_visited; ///< Levels searched, including the hit.
};

/** A segment plus its CRB identity (valid only when approximate). */
struct SegEntry
{
    Segment seg;
    Crb::SegId id = Crb::kNoSeg;
};

/**
 * Group-absolute member set: bit `off % 64` of word `off / 64` is set
 * when group offset `off` is a member.
 */
struct OffsetMask
{
    static constexpr uint32_t kWords = kGroupSpan / 64;
    uint64_t w[kWords] = {};

    void set(uint32_t off) { w[off >> 6] |= 1ull << (off & 63); }

    /** Set every offset in [lo, hi] (inclusive), a word at a time. */
    void
    setRange(uint32_t lo, uint32_t hi)
    {
        for (uint32_t wi = lo >> 6; wi <= hi >> 6; wi++) {
            uint64_t bits = ~0ull;
            if (wi == lo >> 6)
                bits &= ~0ull << (lo & 63);
            if (wi == hi >> 6)
                bits &= ~0ull >> (63 - (hi & 63));
            w[wi] |= bits;
        }
    }

    bool
    none() const
    {
        return (w[0] | w[1] | w[2] | w[3]) == 0;
    }

    /** this & other. */
    OffsetMask
    operator&(const OffsetMask &other) const
    {
        OffsetMask m;
        for (uint32_t i = 0; i < kWords; i++)
            m.w[i] = w[i] & other.w[i];
        return m;
    }

    /** this & ~other (Algorithm 2's subtraction). */
    OffsetMask
    without(const OffsetMask &other) const
    {
        OffsetMask m;
        for (uint32_t i = 0; i < kWords; i++)
            m.w[i] = w[i] & ~other.w[i];
        return m;
    }

    /** Smallest member; the mask must not be empty. */
    uint32_t
    first() const
    {
        uint32_t i = 0;
        while (w[i] == 0)
            i++;
        return i * 64 + static_cast<uint32_t>(std::countr_zero(w[i]));
    }

    /** Largest member; the mask must not be empty. */
    uint32_t
    last() const
    {
        uint32_t i = kWords - 1;
        while (w[i] == 0)
            i--;
        return i * 64 + 63 - static_cast<uint32_t>(std::countl_zero(w[i]));
    }

    /** Append the members in ascending order. */
    void
    appendTo(std::vector<uint8_t> &out) const
    {
        for (uint32_t i = 0; i < kWords; i++) {
            for (uint64_t bits = w[i]; bits; bits &= bits - 1)
                out.push_back(static_cast<uint8_t>(
                    i * 64 + static_cast<uint32_t>(std::countr_zero(bits))));
        }
    }
};

/**
 * Reusable scratch state for the segment-merge procedure: one arena
 * per table (or per call site) keeps the learn path allocation-free
 * in steady state -- every buffer is cleared, never shrunk, between
 * merges.
 */
struct MergeScratch
{
    std::vector<uint8_t> stolen;      ///< Offsets taken from a victim.
    std::vector<SegEntry> conflicts;  ///< Range-conflicting survivors.
    std::vector<Crb::SegId> emptied;  ///< Runs emptied by CRB dedup.
};

/** Log-structured mapping table for one 256-LPA group. */
class Group
{
  public:
    Group() = default;

    /**
     * Insert a freshly learned segment (Algorithm 1, seg_update at the
     * topmost level). Registers approximate members in the CRB, merges
     * overlapping victims, and keeps level 0 sorted.
     */
    void update(const FittedSegment &fs, MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    void
    update(const FittedSegment &fs)
    {
        MergeScratch scratch;
        update(fs, scratch);
    }

    /**
     * Translate a group offset; nullopt when the LPA was never learned.
     * On a hit served by level 0, @a top_hit (when non-null) receives
     * the serving entry -- the table's last-hit lookup cache keys on
     * it; the pointer is valid until the next mutation of this group.
     */
    std::optional<GroupLookup>
    lookup(uint8_t off, const SegEntry **top_hit = nullptr) const;

    /**
     * Full membership test: range + stride grid for accurate segments,
     * range + CRB ownership for approximate ones (Algorithm 2,
     * has_lpa). Public so the table's lookup cache can revalidate a
     * remembered level-0 entry without a level scan.
     */
    bool hasLpa(const SegEntry &e, uint8_t off) const;

    /**
     * Compact levels (Algorithm 1, seg_compact): repeat compactPass()
     * until a pass changes nothing, then mark the group settled.
     * @return the number of passes run (the last one changed nothing).
     */
    uint32_t compact(MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    uint32_t
    compact()
    {
        MergeScratch scratch;
        return compact(scratch);
    }

    /**
     * One two-phase compaction pass. @return true when it changed the
     * group: a segment erased, a range trimmed, CRB offsets dropped, a
     * segment sunk, or the level count changed. Re-stealing an
     * accurate victim's stale interior grid members changes nothing
     * and does not count.
     */
    bool compactPass(MergeScratch &scratch);

    /**
     * True when the group is at its compaction fixed point: compacted
     * and not mutated since (update() and restoreRaw() clear it).
     */
    bool settled() const { return settled_; }

    size_t numLevels() const { return levels_.size(); }
    size_t numSegments() const { return num_segs_; }
    size_t numApproximate() const { return num_approx_; }

    /** Mapping memory: 8 bytes per segment plus the CRB bytes (O(1)). */
    size_t
    memoryBytes() const
    {
        return num_segs_ * Segment::kEncodedBytes + crb_.sizeBytes();
    }

    const Crb &crb() const { return crb_; }

    /** Visit every live segment (topmost level first): fn(entry, level). */
    template <typename Fn>
    void
    forEachSegment(Fn &&fn) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            for (const SegEntry &e : levels_[li].segs)
                fn(e, li);
        }
    }

    /** Validate internal invariants; aborts on violation (tests). */
    void checkInvariants() const;

    /**
     * Recovery path: re-attach a deserialized segment at a given level
     * without merging (the serialized state already satisfies the
     * invariants). @a run holds the CRB offsets for approximate
     * segments (ignored otherwise).
     */
    void restoreRaw(size_t level, const Segment &seg,
                    const std::vector<uint8_t> &run);

  private:
    struct Level
    {
        std::vector<SegEntry> segs; ///< Sorted by S, non-overlapping.
    };

    /** Reconstruct a segment's members into a group-absolute mask. */
    OffsetMask segmentMask(const SegEntry &e) const;

    /**
     * Merge @a entry against overlapping victims of @a level_idx and
     * then insert it there, popping conflicting victims down (runtime
     * behavior of Algorithm 1).
     */
    void insertAt(size_t level_idx, const SegEntry &entry,
                  MergeScratch &scratch);

    /**
     * Compaction variant: merge victims, but only move @a entry into
     * the level when no range conflict survives.
     * @return true when the entry was inserted; @a changed is set when
     * the merge changed a victim.
     */
    bool tryInsertAt(size_t level_idx, const SegEntry &entry,
                     MergeScratch &scratch, bool &changed);

    /**
     * Shared merge step: apply Algorithm 2 to every victim of
     * @a entry (whose members are @a entry_mask) in @a level_idx. Dead
     * victims are removed. Surviving range-conflicting victims are
     * collected into scratch.conflicts (removed from the level when
     * @a detach_conflicts is set).
     * @return true when a victim was erased, trimmed, or lost CRB
     * offsets (detaching conflicts does not count).
     */
    bool mergeVictims(size_t level_idx, const SegEntry &entry,
                      const OffsetMask &entry_mask, bool detach_conflicts,
                      MergeScratch &scratch);

    /** Pop a victim below @a from_level (Algorithm 1 lines 13-16). */
    void pushVictimDown(size_t from_level, const SegEntry &victim);

    /** Remove a (dead) segment wherever it lives. */
    void removeSegmentById(Crb::SegId id);

    void insertSorted(Level &level, const SegEntry &entry);
    void dropEmptyLevels();

    /** Incremental segment-count bookkeeping (every mutation site). */
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
    uint32_t num_segs_ = 0;   ///< Live segments across all levels.
    uint32_t num_approx_ = 0; ///< Live approximate segments.
    bool settled_ = false;    ///< At the compaction fixed point.
};

} // namespace leaftl
