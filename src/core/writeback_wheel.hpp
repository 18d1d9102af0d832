#ifndef CRISP_CORE_WRITEBACK_WHEEL_HPP
#define CRISP_CORE_WRITEBACK_WHEEL_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace crisp
{

/**
 * An SM's pending register writebacks, each a (warp slot, register) pair
 * due at a cycle, on a timing wheel of kSpan one-cycle buckets.
 *
 * popDue(now) hands out every writeback due at or before @p now and
 * nextDue() names the earliest one left, which is all the SM asks of its
 * writeback queue. Same-cycle writebacks commute (each clears a distinct
 * scoreboard bit), so a bucket is an unordered list. A writeback due at
 * or past base_ + kSpan, or before base_ (one scheduled after the pop of
 * its own cycle), waits on a far list, refiled whenever its earliest
 * entry comes within the window or falls due. A push and a pop are O(1);
 * a pop finds its buckets through one occupancy word.
 */
class WritebackWheel
{
  public:
    static constexpr uint32_t kSpan = 64;

    WritebackWheel() { std::fill(std::begin(head_), std::end(head_), kNil); }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Queue the writeback of @p reg of warp @p slot due at @p when. */
    void
    push(Cycle when, uint32_t slot, uint8_t reg)
    {
        panic_if(when >= (1ull << 40) || slot > 0xffff,
                 "writeback (cycle %llu, slot %u) overflows the packing",
                 static_cast<unsigned long long>(when), slot);
        const uint32_t packed = (slot << 8) | reg;
        ++size_;
        if (when >= base_ && when - base_ < kSpan) {
            link(static_cast<uint32_t>(when % kSpan), packed);
            return;
        }
        far_.push_back((when << 24) | packed);
        farMin_ = std::min(farMin_, when);
    }

    /**
     * Call @p fn(slot, reg) for every writeback due at or before @p now,
     * in no particular order, and remove them.
     */
    template <typename Fn>
    void
    popDue(Cycle now, Fn &&fn)
    {
        if (now >= base_) {
            // The buckets of cycles base_ .. now: a window of the
            // occupancy word rotated to start at base_'s bucket.
            const Cycle covered = now - base_ + 1;
            uint64_t window = ~0ull;
            if (covered < kSpan) {
                const uint32_t start = static_cast<uint32_t>(base_ % kSpan);
                const uint64_t low = (1ull << covered) - 1;
                window = (low << start) |
                    (start == 0 ? 0 : low >> (kSpan - start));
            }
            for (uint64_t due = occupied_ & window; due != 0;
                 due &= due - 1) {
                drain(static_cast<uint32_t>(__builtin_ctzll(due)), fn);
            }
            occupied_ &= ~window;
            base_ = now + 1;
        }
        if (farMin_ <= now || farMin_ - base_ < kSpan) {
            refileFar(now, fn);
        }
    }

    /** Due cycle of the earliest pending writeback (kNeverCycle if none). */
    Cycle
    nextDue() const
    {
        Cycle best = farMin_;
        if (occupied_ != 0) {
            const uint32_t start = static_cast<uint32_t>(base_ % kSpan);
            const uint64_t rotated = start == 0
                ? occupied_
                : (occupied_ >> start) | (occupied_ << (kSpan - start));
            best = std::min<Cycle>(best, base_ + __builtin_ctzll(rotated));
        }
        return best;
    }

  private:
    static constexpr uint32_t kNil = ~0u;

    struct Node
    {
        uint32_t packed;   ///< slot << 8 | reg
        uint32_t next;
    };

    void
    link(uint32_t bucket, uint32_t packed)
    {
        uint32_t idx;
        if (freeNodes_ != kNil) {
            idx = freeNodes_;
            freeNodes_ = nodes_[idx].next;
        } else {
            idx = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back({});
        }
        nodes_[idx] = {packed, head_[bucket]};
        head_[bucket] = idx;
        occupied_ |= 1ull << bucket;
    }

    template <typename Fn>
    void
    drain(uint32_t bucket, Fn &fn)
    {
        uint32_t idx = head_[bucket];
        head_[bucket] = kNil;
        while (idx != kNil) {
            const Node node = nodes_[idx];
            nodes_[idx].next = freeNodes_;
            freeNodes_ = idx;
            --size_;
            fn(node.packed >> 8, static_cast<uint8_t>(node.packed & 0xff));
            idx = node.next;
        }
    }

    /** Pop the far entries due by @p now, move those inside the window
     *  onto the wheel, and keep the rest. */
    template <typename Fn>
    void
    refileFar(Cycle now, Fn &fn)
    {
        farMin_ = kNeverCycle;
        size_t kept = 0;
        for (const uint64_t entry : far_) {
            const Cycle when = entry >> 24;
            const uint32_t packed = static_cast<uint32_t>(entry & 0xffffff);
            if (when <= now) {
                --size_;
                fn(packed >> 8, static_cast<uint8_t>(packed & 0xff));
            } else if (when >= base_ && when - base_ < kSpan) {
                link(static_cast<uint32_t>(when % kSpan), packed);
            } else {
                far_[kept++] = entry;
                farMin_ = std::min(farMin_, when);
            }
        }
        far_.resize(kept);
    }

    /** Bucket b holds the writebacks due at the one cycle of
     *  [base_, base_ + kSpan) that is b mod kSpan. */
    uint32_t head_[kSpan];
    /** Bit b set: bucket b is not empty. */
    uint64_t occupied_ = 0;
    /** The cycle after the last popDue(): nothing earlier is on the
     *  wheel. */
    Cycle base_ = 0;
    uint32_t size_ = 0;
    /** Bucket list nodes; freed ones chain through freeNodes_, so the
     *  pool stops growing at the most writebacks ever pending. */
    std::vector<Node> nodes_;
    uint32_t freeNodes_ = kNil;
    /** Writebacks outside the window, packed when << 24 | slot << 8 |
     *  reg, and their earliest due cycle. */
    std::vector<uint64_t> far_;
    Cycle farMin_ = kNeverCycle;
};

} // namespace crisp

#endif // CRISP_CORE_WRITEBACK_WHEEL_HPP
