#ifndef CRISP_MEM_MSHR_HPP
#define CRISP_MEM_MSHR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

/**
 * Miss Status Holding Register file.
 *
 * Tracks outstanding line misses and merges secondary misses to the same
 * line into the existing entry, so one fill satisfies all waiters. Full
 * MSHRs (or a full target list) stall the requester, which is one of the
 * throughput limits that make workloads bandwidth-bound in the TAP study.
 *
 * Each entry remembers the cycle of its primary allocation so the
 * integrity layer can detect leaked entries: a line whose fill never
 * arrives ages forever and is the classic silent-hang bug in cycle
 * simulators.
 *
 * Storage is flat: an open-addressed hash table (linear probing,
 * backward-shift deletion) whose slots carry the line beside the entry
 * index, so a probe compares in place; a fixed entry pool with an
 * intrusive allocation-order list; and one numEntries x maxTargets array
 * holding every entry's target keys. lookup()/allocate() sit on the
 * per-line hot path of every cache level, so nothing on it allocates or
 * chases a pointer past the table; the order list makes
 * oldestAllocation() a true O(1) head read.
 */
class Mshr
{
  public:
    /**
     * @param num_entries distinct outstanding lines
     * @param max_targets merged requests per line (incl. the primary)
     */
    Mshr(uint32_t num_entries, uint32_t max_targets);

    /**
     * Target key recorded for requests that expect no response (e.g. L2
     * write misses). Void keys occupy a target slot but are not counted
     * by responseTargets().
     */
    static constexpr uint64_t kVoidKey = ~0ull;

    /** Result of trying to record a miss. */
    enum class Outcome
    {
        NewEntry,   ///< Primary miss: caller must send a fill request.
        Merged,     ///< Secondary miss merged; no new downstream request.
        Stall       ///< No entry/target space; caller must retry later.
    };

    /**
     * Where @p line sits in the hash table: the slot of its entry when a
     * fill is pending, else the free slot an allocation would take. One
     * probe serves every question a request asks (pending? would it
     * stall? allocate), so a cache level probes once per line. Valid
     * until the next allocate() or fill() on this Mshr.
     */
    struct Lookup
    {
        uint32_t slot = 0;      ///< Entry's table slot, or the free one.
        bool pending = false;   ///< A fill for the line is outstanding.
    };
    Lookup lookup(Addr line) const;

    /** Record a miss for @p line with completion @p key at cycle @p now. */
    Outcome allocate(Addr line, uint64_t key, Cycle now = 0)
    {
        return allocate(lookup(line), line, key, now);
    }

    /** allocate() at a fresh lookup(@p line) result @p at. */
    Outcome allocate(const Lookup &at, Addr line, uint64_t key,
                     Cycle now = 0);

    /**
     * Target keys currently waiting on @p line (empty when the line is
     * not pending). The integrity leak scan uses this to test whether a
     * specific requester still has a merged target alive downstream.
     */
    std::vector<uint64_t> keysFor(Addr line) const;

    /**
     * True if allocate() at the fresh lookup result @p at would return
     * Stall: the line is pending with a full target list, or it is not
     * pending and no entry is free. Side-effect-free; the L1 parks a
     * blocked LDST head on it without mutating the MSHR.
     */
    bool
    wouldStall(const Lookup &at) const
    {
        return at.pending
            ? pool_[table_[at.slot].entry].targets >= maxTargets_
            : used_ >= numEntries_;
    }

    /**
     * The fill arrived: frees the line's entry and returns the completion
     * keys that waited on it, in merge order (empty if the line was not
     * pending). The span views the freed entry's target row, valid until
     * the next allocate() on this Mshr — iterate it directly, don't hold
     * it across calls.
     */
    std::span<const uint64_t> fill(Addr line);

    uint32_t entriesInUse() const { return used_; }
    bool full() const { return used_ >= numEntries_; }

    /** Outstanding targets that expect a response (key != kVoidKey). */
    uint64_t responseTargets() const { return responseTargets_; }

    /** Cumulative primary allocations (NewEntry outcomes). */
    uint64_t primaryAllocations() const { return primaryAllocations_; }
    /** Cumulative secondary allocations merged into a pending line. */
    uint64_t mergedAllocations() const { return mergedAllocations_; }
    /** Cumulative fills that resolved a pending line. Conservation:
     *  primaryAllocations() == fillsServed() + entriesInUse(). */
    uint64_t fillsServed() const { return fillsServed_; }

    /** Introspection snapshot of one outstanding entry. */
    struct EntryInfo
    {
        Addr line = 0;
        Cycle allocatedAt = 0;
        uint32_t targets = 0;
        std::vector<uint64_t> keys;
    };

    /** Snapshot of all outstanding entries (integrity/leak scans),
     *  oldest primary allocation first. */
    std::vector<EntryInfo> entries() const;

    /** Allocation cycle of the oldest outstanding entry (0 when empty).
     *  O(1): head of the intrusive allocation-order list. */
    Cycle oldestAllocation() const;

  private:
    static constexpr uint32_t kNil = ~0u;

    /** One hash-table slot: the pending line and its entry's pool index
     *  (entry == kNil marks a free slot). */
    struct Slot
    {
        Addr line = 0;
        uint32_t entry = kNil;
    };

    struct Entry
    {
        Addr line = 0;
        Cycle allocatedAt = 0;
        /** Keys in use in this entry's row of targets_. */
        uint32_t targets = 0;
        /** Intrusive allocation-order list (oldest at head_). */
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };

    uint32_t hashSlot(Addr line) const;
    /** First key of pool entry @p idx's row of targets_. */
    uint64_t *targetRow(uint32_t idx)
    {
        return targets_.data() + static_cast<size_t>(idx) * maxTargets_;
    }
    const uint64_t *targetRow(uint32_t idx) const
    {
        return targets_.data() + static_cast<size_t>(idx) * maxTargets_;
    }
    /** Backward-shift deletion starting at table slot @p slot. */
    void eraseSlot(uint32_t slot);

    uint32_t numEntries_;
    uint32_t maxTargets_;
    uint32_t used_ = 0;
    uint32_t tableMask_ = 0;
    uint64_t responseTargets_ = 0;
    uint64_t primaryAllocations_ = 0;
    uint64_t mergedAllocations_ = 0;
    uint64_t fillsServed_ = 0;
    uint32_t orderHead_ = kNil;
    uint32_t orderTail_ = kNil;
    /** Open-addressed table. Sized to a power of two ≥ 2× numEntries_,
     *  so load factor stays ≤ 50% and linear probes stay short even when
     *  the MSHR is full. */
    std::vector<Slot> table_;
    std::vector<Entry> pool_;
    std::vector<uint32_t> freeList_;
    /** Target keys, maxTargets_ per pool entry, in merge order. */
    std::vector<uint64_t> targets_;
};

} // namespace crisp

#endif // CRISP_MEM_MSHR_HPP
