#ifndef CRISP_MEM_DUE_QUEUE_HPP
#define CRISP_MEM_DUE_QUEUE_HPP

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

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
 *
 * The FIFO is a ring buffer of power-of-two capacity that only grows,
 * so a queue that has reached its working depth never allocates again.
 */
template <typename T>
class DueQueue
{
  public:
    using Entry = std::pair<Cycle, T>;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    void
    push(Cycle due, T item)
    {
        if (size_ == ring_.size()) {
            grow();
        }
        // Walk back from the tail over the entries due later; a producer
        // in due order never walks.
        size_t pos = size_;
        while (pos > 0 && at(pos - 1).first > due) {
            at(pos) = std::move(at(pos - 1));
            --pos;
        }
        at(pos) = Entry(due, std::move(item));
        ++size_;
    }

    /** Due cycle of the earliest entry (the queue must not be empty). */
    Cycle frontDue() const { return at(0).first; }

    /** True when the earliest entry is due at or before @p now. */
    bool
    dueBy(Cycle now) const
    {
        return size_ != 0 && at(0).first <= now;
    }

    /** Remove and return the earliest entry. */
    Entry
    pop()
    {
        Entry e = std::move(at(0));
        head_ = (head_ + 1) & (ring_.size() - 1);
        --size_;
        return e;
    }

    /** True when the due cycles never decrease front to back (audit). */
    bool
    ordered() const
    {
        for (size_t i = 1; i < size_; ++i) {
            if (at(i).first < at(i - 1).first) {
                return false;
            }
        }
        return true;
    }

    /** Front-to-back walk over the entries. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Entry;
        using difference_type = std::ptrdiff_t;
        using pointer = const Entry *;
        using reference = const Entry &;

        const_iterator() = default;
        const_iterator(const DueQueue *queue, size_t pos)
            : queue_(queue), pos_(pos)
        {
        }
        reference operator*() const { return queue_->at(pos_); }
        pointer operator->() const { return &queue_->at(pos_); }
        const_iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }
        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++pos_;
            return old;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return pos_ == o.pos_;
        }

      private:
        const DueQueue *queue_ = nullptr;
        size_t pos_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** The @p i-th entry from the front. */
    Entry &at(size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
    const Entry &
    at(size_t i) const
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    /** Double the capacity (16 at first), unrolling the ring to start at
     *  slot 0. */
    void
    grow()
    {
        std::vector<Entry> bigger(ring_.empty() ? 16 : ring_.size() * 2);
        for (size_t i = 0; i < size_; ++i) {
            bigger[i] = std::move(at(i));
        }
        ring_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<Entry> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace crisp

#endif // CRISP_MEM_DUE_QUEUE_HPP
