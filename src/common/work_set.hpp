#ifndef CRISP_COMMON_WORK_SET_HPP
#define CRISP_COMMON_WORK_SET_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crisp
{

/**
 * A set of small dense ids (SMs, L2 banks) that may have work this
 * cycle, kept as a bitmap plus a member count.
 *
 * The per-cycle walks use it to visit only the items that can have work
 * instead of asking every item: a walk costs one word read per 64 ids
 * plus one visit per member, and it still visits members in id order
 * (or in a rotation from any start id), so a walk over the set visits
 * exactly the items a full scan would have acted on, in the same order.
 */
class WorkSet
{
  public:
    explicit WorkSet(size_t size = 0) : words_((size + 63) / 64, 0) {}

    void
    insert(size_t id)
    {
        uint64_t &word = words_[id / 64];
        const uint64_t bit = uint64_t{1} << (id % 64);
        count_ += (word & bit) == 0 ? 1 : 0;
        word |= bit;
    }

    void
    erase(size_t id)
    {
        uint64_t &word = words_[id / 64];
        const uint64_t bit = uint64_t{1} << (id % 64);
        count_ -= (word & bit) != 0 ? 1 : 0;
        word &= ~bit;
    }

    bool
    contains(size_t id) const
    {
        return (words_[id / 64] >> (id % 64) & 1) != 0;
    }

    size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /**
     * Call @p fn(id) for every member, in ascending id order starting at
     * @p start and wrapping around to the members below it. @p fn may
     * erase the id it is given; it must not insert.
     */
    template <typename Fn>
    void
    forEachFrom(size_t start, Fn &&fn) const
    {
        if (words_.empty()) {
            return;
        }
        const size_t first = start / 64;
        const uint64_t below = (uint64_t{1} << (start % 64)) - 1;
        visit(first, words_[first] & ~below, fn);
        for (size_t w = first + 1; w < words_.size(); ++w) {
            visit(w, words_[w], fn);
        }
        for (size_t w = 0; w < first; ++w) {
            visit(w, words_[w], fn);
        }
        visit(first, words_[first] & below, fn);
    }

  private:
    /** Visit the ids of the bits in @p bits, a copy of word @p w taken
     *  before the visits so @p fn may erase as it goes. */
    template <typename Fn>
    static void
    visit(size_t w, uint64_t bits, Fn &fn)
    {
        while (bits != 0) {
            fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
            bits &= bits - 1;
        }
    }

    std::vector<uint64_t> words_;
    size_t count_ = 0;
};

} // namespace crisp

#endif // CRISP_COMMON_WORK_SET_HPP
