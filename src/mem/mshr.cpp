#include "mem/mshr.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace crisp
{

namespace
{

uint32_t
nextPow2(uint32_t v)
{
    uint32_t p = 1;
    while (p < v) {
        p <<= 1;
    }
    return p;
}

} // namespace

Mshr::Mshr(uint32_t num_entries, uint32_t max_targets)
    : numEntries_(num_entries), maxTargets_(max_targets)
{
    fatal_if(num_entries == 0 || max_targets == 0,
             "MSHR needs at least one entry and one target");
    const uint32_t table_size = nextPow2(std::max(16u, num_entries * 2));
    tableMask_ = table_size - 1;
    table_.assign(table_size, Slot{});
    pool_.resize(num_entries);
    targets_.assign(static_cast<size_t>(num_entries) * max_targets, 0);
    freeList_.reserve(num_entries);
    for (uint32_t i = num_entries; i > 0; --i) {
        freeList_.push_back(i - 1);
    }
}

uint32_t
Mshr::hashSlot(Addr line) const
{
    // Fibonacci multiplicative hash; lines share their low alignment bits,
    // so plain masking would collide every access into a few slots.
    return static_cast<uint32_t>(
               (line * 0x9E3779B97F4A7C15ull) >> 32) & tableMask_;
}

Mshr::Lookup
Mshr::lookup(Addr line) const
{
    for (uint32_t slot = hashSlot(line);; slot = (slot + 1) & tableMask_) {
        const Slot &s = table_[slot];
        if (s.entry == kNil) {
            return {slot, false};
        }
        if (s.line == line) {
            return {slot, true};
        }
    }
}

void
Mshr::eraseSlot(uint32_t slot)
{
    // Backward-shift deletion: pull each displaced cluster member back
    // into the hole so probes never need tombstones.
    uint32_t hole = slot;
    for (uint32_t probe = (hole + 1) & tableMask_;;
         probe = (probe + 1) & tableMask_) {
        const Slot &s = table_[probe];
        if (s.entry == kNil) {
            break;
        }
        const uint32_t ideal = hashSlot(s.line);
        // Move back only if the element's ideal slot does not lie in
        // (hole, probe] — i.e. the hole sits on its probe path.
        if (((probe - ideal) & tableMask_) >= ((probe - hole) & tableMask_)) {
            table_[hole] = s;
            hole = probe;
        }
    }
    table_[hole] = Slot{};
}

Mshr::Outcome
Mshr::allocate(const Lookup &at, Addr line, uint64_t key, Cycle now)
{
    if (at.pending) {
        const uint32_t idx = table_[at.slot].entry;
        Entry &e = pool_[idx];
        if (e.targets >= maxTargets_) {
            return Outcome::Stall;
        }
        targetRow(idx)[e.targets++] = key;
        if (key != kVoidKey) {
            ++responseTargets_;
        }
        ++mergedAllocations_;
        return Outcome::Merged;
    }
    if (used_ >= numEntries_) {
        return Outcome::Stall;
    }
    const uint32_t idx = freeList_.back();
    freeList_.pop_back();
    Entry &e = pool_[idx];
    e.line = line;
    e.allocatedAt = now;
    e.targets = 1;
    targetRow(idx)[0] = key;
    e.prev = orderTail_;
    e.next = kNil;
    if (orderTail_ != kNil) {
        pool_[orderTail_].next = idx;
    } else {
        orderHead_ = idx;
    }
    orderTail_ = idx;
    // The lookup's probe ended on the first free slot of the line's
    // cluster: exactly where a fresh linear probe would insert.
    table_[at.slot] = Slot{line, idx};
    ++used_;
    if (key != kVoidKey) {
        ++responseTargets_;
    }
    ++primaryAllocations_;
    return Outcome::NewEntry;
}

std::vector<uint64_t>
Mshr::keysFor(Addr line) const
{
    const Lookup at = lookup(line);
    if (!at.pending) {
        return {};
    }
    const uint32_t idx = table_[at.slot].entry;
    const uint64_t *row = targetRow(idx);
    return std::vector<uint64_t>(row, row + pool_[idx].targets);
}

std::span<const uint64_t>
Mshr::fill(Addr line)
{
    const Lookup at = lookup(line);
    if (!at.pending) {
        return {};
    }
    const uint32_t slot = at.slot;
    const uint32_t idx = table_[slot].entry;
    Entry &e = pool_[idx];
    const std::span<const uint64_t> keys(targetRow(idx), e.targets);
    for (uint64_t key : keys) {
        if (key != kVoidKey) {
            panic_if(responseTargets_ == 0, "MSHR target count underflow");
            --responseTargets_;
        }
    }
    e.targets = 0;
    // Unlink from the allocation-order list.
    if (e.prev != kNil) {
        pool_[e.prev].next = e.next;
    } else {
        orderHead_ = e.next;
    }
    if (e.next != kNil) {
        pool_[e.next].prev = e.prev;
    } else {
        orderTail_ = e.prev;
    }
    eraseSlot(slot);
    // The freed row is only rewritten by the next allocate(), which is
    // what bounds the returned span's lifetime.
    freeList_.push_back(idx);
    --used_;
    ++fillsServed_;
    return keys;
}

std::vector<Mshr::EntryInfo>
Mshr::entries() const
{
    // The order list is already oldest-first: allocation cycles are
    // non-decreasing, so no sort is needed.
    std::vector<EntryInfo> out;
    out.reserve(used_);
    for (uint32_t idx = orderHead_; idx != kNil; idx = pool_[idx].next) {
        const Entry &e = pool_[idx];
        EntryInfo info;
        info.line = e.line;
        info.allocatedAt = e.allocatedAt;
        info.targets = e.targets;
        info.keys.assign(targetRow(idx), targetRow(idx) + e.targets);
        out.push_back(std::move(info));
    }
    return out;
}

Cycle
Mshr::oldestAllocation() const
{
    return orderHead_ == kNil ? 0 : pool_[orderHead_].allocatedAt;
}

} // namespace crisp
