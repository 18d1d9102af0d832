#ifndef CRISP_COMMON_WAKE_CALENDAR_HPP
#define CRISP_COMMON_WAKE_CALENDAR_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

/**
 * The wake cycles of a fixed set of components (a GPU's SMs), one slot
 * each, in one contiguous array.
 *
 * Each component owns its slot and writes its wake through it, so the
 * slot is the component's only copy: nothing is mirrored and nothing can
 * go stale. The per-cycle questions "who is due" and "when does the
 * next one wake" then read this array alone instead of visiting every
 * component object.
 */
class WakeCalendar
{
  public:
    /** @p size slots, every one due at once (wake 0). */
    explicit WakeCalendar(size_t size) : wake_(size, 0) {}

    /** Slot of component @p id; stable for the calendar's lifetime. */
    Cycle *slot(size_t id) { return &wake_[id]; }

    /** Call @p fn(id) for every slot due by @p now, in id order. The
     *  test runs without a branch per slot: each 64-slot word builds a
     *  due mask first, then visits only its set bits. */
    template <typename Fn>
    void
    forEachDue(Cycle now, Fn &&fn) const
    {
        for (size_t base = 0; base < wake_.size(); base += 64) {
            const size_t end = std::min(wake_.size(), base + 64);
            uint64_t due = 0;
            for (size_t id = base; id < end; ++id) {
                due |= static_cast<uint64_t>(wake_[id] <= now)
                    << (id - base);
            }
            for (; due != 0; due &= due - 1) {
                fn(base + static_cast<size_t>(__builtin_ctzll(due)));
            }
        }
    }

    /** The earliest wake over every slot (kNeverCycle when empty). */
    Cycle
    earliest() const
    {
        Cycle min = kNeverCycle;
        for (const Cycle w : wake_) {
            min = std::min(min, w);
        }
        return min;
    }

  private:
    std::vector<Cycle> wake_;
};

} // namespace crisp

#endif // CRISP_COMMON_WAKE_CALENDAR_HPP
