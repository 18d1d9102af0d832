#ifndef CRISP_MEM_DUE_QUEUE_HPP
#define CRISP_MEM_DUE_QUEUE_HPP

#include <cstddef>
#include <utility>

#include "common/ring.hpp"
#include "common/types.hpp"

namespace crisp
{

/**
 * Items ordered by the cycle they fall due, popped earliest first and,
 * among equal due cycles, in insertion order — the order a
 * std::multimap<Cycle, T> keyed by due cycle pops them in.
 *
 * A FIFO underneath: push() appends whenever its due cycle is at or
 * above the last entry's, which is the case for every producer whose
 * due cycles never decrease (a bandwidth-serialized channel returns
 * floor(freeAt) + fixed latency, and freeAt never falls). An earlier
 * due cycle (a fault-injected delay re-insert) goes in after the last
 * entry at or below its own, exactly where the multimap would put an
 * equal key, so the pop order is the multimap's for any push sequence.
 */
template <typename T>
class DueQueue
{
  public:
    using Entry = std::pair<Cycle, T>;
    using const_iterator = typename Ring<Entry>::const_iterator;

    bool empty() const { return ring_.empty(); }
    size_t size() const { return ring_.size(); }

    void
    push(Cycle due, T item)
    {
        // Walk back from the tail over the entries due later; a producer
        // in due order never walks.
        size_t pos = ring_.size();
        while (pos > 0 && ring_[pos - 1].first > due) {
            --pos;
        }
        ring_.insert(pos, Entry(due, std::move(item)));
    }

    /** Due cycle of the earliest entry (the queue must not be empty). */
    Cycle frontDue() const { return ring_.front().first; }

    /** True when the earliest entry is due at or before @p now. */
    bool
    dueBy(Cycle now) const
    {
        return !ring_.empty() && ring_.front().first <= now;
    }

    /** Remove and return the earliest entry. */
    Entry
    pop()
    {
        Entry e = std::move(ring_.front());
        ring_.pop_front();
        return e;
    }

    /** True when the due cycles never decrease front to back (audit). */
    bool
    ordered() const
    {
        for (size_t i = 1; i < ring_.size(); ++i) {
            if (ring_[i].first < ring_[i - 1].first) {
                return false;
            }
        }
        return true;
    }

    /** Front-to-back walk over the entries. */
    const_iterator begin() const { return ring_.begin(); }
    const_iterator end() const { return ring_.end(); }

  private:
    Ring<Entry> ring_;
};

} // namespace crisp

#endif // CRISP_MEM_DUE_QUEUE_HPP
