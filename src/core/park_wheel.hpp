#ifndef CRISP_CORE_PARK_WHEEL_HPP
#define CRISP_CORE_PARK_WHEEL_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace crisp
{

/**
 * An SM's timed warp parks: each parked warp slot (< 64) waits for the
 * cycle its operands land, on a timing wheel of kSpan one-cycle buckets
 * that each hold a mask of slots.
 *
 * popDue(now) hands back the mask of every slot due at or before @p now
 * and nextDue() names the earliest cycle left, which is all the SM asks
 * of it. A park due at or past base_ + kSpan, or before base_ (pushed
 * after the pop of its own cycle), waits on a far list, refiled whenever
 * its earliest entry comes within the window or falls due. A push and a
 * pop are O(1); a pop finds its buckets through one occupancy word.
 */
class ParkWheel
{
  public:
    static constexpr uint32_t kSpan = 64;

    /** Park warp slot @p slot until cycle @p when. */
    void
    push(Cycle when, uint32_t slot)
    {
        panic_if(slot >= 64, "park of warp slot %u past the 64-slot mask",
                 slot);
        if (when >= base_ && when - base_ < kSpan) {
            const uint32_t bucket = static_cast<uint32_t>(when % kSpan);
            buckets_[bucket] |= uint64_t{1} << slot;
            occupied_ |= uint64_t{1} << bucket;
            return;
        }
        far_.push_back({when, slot});
        farMin_ = std::min(farMin_, when);
    }

    /** The slots of every park due at or before @p now, removed. */
    uint64_t
    popDue(Cycle now)
    {
        uint64_t due = 0;
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
            for (uint64_t hit = occupied_ & window; hit != 0;
                 hit &= hit - 1) {
                const uint32_t bucket =
                    static_cast<uint32_t>(__builtin_ctzll(hit));
                due |= buckets_[bucket];
                buckets_[bucket] = 0;
            }
            occupied_ &= ~window;
            base_ = now + 1;
        }
        if (farMin_ <= now || farMin_ - base_ < kSpan) {
            due |= refileFar(now);
        }
        return due;
    }

    /** Cycle of the earliest park left (kNeverCycle if none). */
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
    struct FarPark
    {
        Cycle when;
        uint32_t slot;
    };

    /** Pop the far parks due by @p now, move those inside the window
     *  onto the wheel, and keep the rest. @return the popped slots. */
    uint64_t
    refileFar(Cycle now)
    {
        uint64_t due = 0;
        farMin_ = kNeverCycle;
        size_t kept = 0;
        for (const FarPark &park : far_) {
            if (park.when <= now) {
                due |= uint64_t{1} << park.slot;
            } else if (park.when >= base_ && park.when - base_ < kSpan) {
                push(park.when, park.slot);
            } else {
                far_[kept++] = park;
                farMin_ = std::min(farMin_, park.when);
            }
        }
        far_.resize(kept);
        return due;
    }

    /** Bucket b holds the slots due at the one cycle of
     *  [base_, base_ + kSpan) that is b mod kSpan. */
    uint64_t buckets_[kSpan] = {};
    /** Bit b set: bucket b is not empty. */
    uint64_t occupied_ = 0;
    /** The cycle after the last popDue(): nothing earlier is on the
     *  wheel. */
    Cycle base_ = 0;
    /** Parks outside the window and their earliest cycle. */
    std::vector<FarPark> far_;
    Cycle farMin_ = kNeverCycle;
};

} // namespace crisp

#endif // CRISP_CORE_PARK_WHEEL_HPP
