#ifndef CRISP_COMMON_RING_HPP
#define CRISP_COMMON_RING_HPP

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace crisp
{

/**
 * FIFO on a ring buffer of power-of-two capacity that only grows: every
 * queue on the memory path (L2 bank queues, the L2's due queues, an
 * SM's LDST queue and fabric-retry queue, the inter-GPU fabric's link
 * queues) is one of these, so a queue that has reached its working
 * depth never allocates again, where a std::deque allocates and frees
 * a chunk every few hundred pushes.
 *
 * Besides front/pop/push it indexes and walks front to back (audits,
 * in-flight scans) and inserts at any position, shifting the entries
 * behind it one place back (priority entries, out-of-order due cycles).
 * A popped slot keeps its moved-from element until a push reuses it.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** The @p i-th entry from the front (i < size()). */
    T &operator[](size_t i) { return slots_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    void
    push_back(T item)
    {
        if (size_ == slots_.size()) {
            grow();
        }
        (*this)[size_] = std::move(item);
        ++size_;
    }

    /** Insert @p item so that it becomes the @p pos-th entry (pos <=
     *  size()); the entries from @p pos on move one place back. */
    void
    insert(size_t pos, T item)
    {
        if (size_ == slots_.size()) {
            grow();
        }
        for (size_t i = size_; i > pos; --i) {
            (*this)[i] = std::move((*this)[i - 1]);
        }
        (*this)[pos] = std::move(item);
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Front-to-back walk over the entries. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const Ring *ring, size_t pos) : ring_(ring), pos_(pos)
        {
        }
        reference operator*() const { return (*ring_)[pos_]; }
        pointer operator->() const { return &(*ring_)[pos_]; }
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
        const Ring *ring_ = nullptr;
        size_t pos_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Double the capacity (16 at first), unrolling the ring to start at
     *  slot 0. */
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
        for (size_t i = 0; i < size_; ++i) {
            bigger[i] = std::move((*this)[i]);
        }
        slots_ = std::move(bigger);
        head_ = 0;
        mask_ = slots_.size() - 1;
    }

    std::vector<T> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace crisp

#endif // CRISP_COMMON_RING_HPP
