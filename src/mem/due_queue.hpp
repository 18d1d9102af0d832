#ifndef CRISP_MEM_DUE_QUEUE_HPP
#define CRISP_MEM_DUE_QUEUE_HPP

#include <algorithm>
#include <deque>
#include <utility>

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

    bool empty() const { return items_.empty(); }
    size_t size() const { return items_.size(); }

    void
    push(Cycle due, T item)
    {
        if (items_.empty() || items_.back().first <= due) {
            items_.emplace_back(due, std::move(item));
            return;
        }
        auto pos = std::upper_bound(
            items_.begin(), items_.end(), due,
            [](Cycle at, const Entry &e) { return at < e.first; });
        items_.emplace(pos, due, std::move(item));
    }

    /** Due cycle of the earliest entry (the queue must not be empty). */
    Cycle frontDue() const { return items_.front().first; }

    /** True when the earliest entry is due at or before @p now. */
    bool
    dueBy(Cycle now) const
    {
        return !items_.empty() && items_.front().first <= now;
    }

    /** Remove and return the earliest entry. */
    Entry
    pop()
    {
        Entry e = std::move(items_.front());
        items_.pop_front();
        return e;
    }

    /** True when the due cycles never decrease front to back (audit). */
    bool
    ordered() const
    {
        return std::is_sorted(
            items_.begin(), items_.end(),
            [](const Entry &a, const Entry &b) { return a.first < b.first; });
    }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }

  private:
    std::deque<Entry> items_;
};

} // namespace crisp

#endif // CRISP_MEM_DUE_QUEUE_HPP
