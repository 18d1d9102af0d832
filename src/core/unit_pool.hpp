#ifndef CRISP_CORE_UNIT_POOL_HPP
#define CRISP_CORE_UNIT_POOL_HPP

#include <cstdint>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace crisp
{

/**
 * One execution-unit class of an SM: the cycle each unit comes free.
 *
 * An issue takes the earliest-free unit and blocks it until now +
 * interval. With a fixed interval and a clock that never runs back, that
 * new free time is at or above every other unit's, so the free times
 * stay sorted around a ring: the earliest is always at head_, and an
 * issue overwrites it and steps head_ on. That is the same multiset of
 * free times a scan for the minimum keeps, in O(1) and without one.
 */
class UnitPool
{
  public:
    static constexpr uint32_t kMaxUnits = 16;

    UnitPool() = default;
    UnitPool(uint32_t units, uint32_t interval)
        : count_(units), interval_(interval)
    {
        fatal_if(units == 0 || units > kMaxUnits,
                 "an execution unit class needs 1 to %u units, not %u",
                 kMaxUnits, units);
    }

    /** Cycle the earliest-free unit comes free (issue needs <= now). */
    Cycle minFree() const { return freeAt_[head_]; }

    /** Take the earliest-free unit at @p now (minFree() <= now). */
    void
    take(Cycle now)
    {
        freeAt_[head_] = now + interval_;
        head_ = head_ + 1 == count_ ? 0 : head_ + 1;
    }

  private:
    Cycle freeAt_[kMaxUnits] = {};
    uint32_t head_ = 0;
    uint32_t count_ = 1;
    uint32_t interval_ = 0;
};

} // namespace crisp

#endif // CRISP_CORE_UNIT_POOL_HPP
