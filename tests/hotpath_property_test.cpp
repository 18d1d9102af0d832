// Equivalence pins for the hot-path rewrites.
//
// The SoA SetAssocCache and the open-addressed Mshr replaced slower
// reference structures (AoS line array with LRU scans; unordered_map
// plus an age deque). Both rewrites are required to be *byte-identical*
// in observable behaviour — the golden suite enforces that end-to-end,
// and these tests enforce it at the unit level by replaying long random
// operation sequences against reference models transcribed from the
// original implementations. The L2's due-cycle FIFOs (DueQueue) are
// pinned the same way against the std::multimap they replaced, and the
// work-set walk (WorkSet) against a full scan. The SM's per-instruction
// structures are pinned against the forms they replaced: the park
// wheel against a std::multimap, the unit-pool ring against a min_element
// scan, the MSHR's single-probe lookup against the reference MSHR, and
// the shared-memory lane-linear fast path against the general scan. The
// per-line structures are pinned the same way: the L2's per-bank wake
// against the busy-bank poll, the flat MSHR against the reference MSHR,
// the ring FIFO against std::deque (alone and as the fabric's chain of
// link stages), and the sentinel-tag hit test and
// one-pass victim against the reference cache's two-pass scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "common/ring.hpp"
#include "common/work_set.hpp"
#include "core/park_wheel.hpp"
#include "core/smem_banks.hpp"
#include "core/unit_pool.hpp"
#include "gpu/gpu.hpp"
#include "isa/trace_builder.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/due_queue.hpp"
#include "mem/icnt.hpp"
#include "mem/l2_subsystem.hpp"
#include "mem/mshr.hpp"
#include "workloads/compute.hpp"

namespace crisp
{
namespace
{

// ---------------------------------------------------------------------
// Reference cache: the original AoS implementation (lruPosition scans,
// per-line structs). Kept verbatim modulo naming so the SoA rewrite has
// a fixed semantic target.
// ---------------------------------------------------------------------

class RefCache
{
  public:
    explicit RefCache(const CacheGeometry &geom) : geom_(geom)
    {
        lines_.resize(static_cast<size_t>(geom_.numSets()) * geom_.ways);
    }

    CacheAccessResult
    access(Addr line, bool write, StreamId stream, DataClass cls,
           bool allocate_on_miss = true)
    {
        const bool sectored = geom_.sectorBytes != 0;
        uint8_t sector_bit = 0xff;
        if (sectored) {
            const uint32_t sector = static_cast<uint32_t>(
                line % geom_.lineBytes / geom_.sectorBytes);
            sector_bit = static_cast<uint8_t>(1u << sector);
            line -= line % geom_.lineBytes;
        }
        ++accesses_;
        const Addr tag = line / geom_.lineBytes;
        const uint32_t set = mapSet(line, stream);

        CacheAccessResult res;
        if (Line *hit_line = findLine(set, tag)) {
            if (sectored && !(hit_line->validSectors & sector_bit)) {
                ++sectorMisses_;
                res.sectorMiss = true;
                if (allocate_on_miss) {
                    hit_line->validSectors |= sector_bit;
                    hit_line->lastUse = ++useCounter_;
                    hit_line->dirty = hit_line->dirty || write;
                }
                return res;
            }
            ++hits_;
            res.hit = true;
            res.hitLruPos = lruPosition(set, hit_line);
            hit_line->lastUse = ++useCounter_;
            hit_line->dirty = hit_line->dirty || write;
            return res;
        }
        if (!allocate_on_miss) {
            return res;
        }
        installVictim(set, tag, write, stream, cls, sector_bit, res.evicted,
                      res.evictedLine, res.evictedDirty,
                      res.evictedValidSectors);
        return res;
    }

    CacheFillResult
    fill(Addr line, bool write, StreamId stream, DataClass cls)
    {
        const bool sectored = geom_.sectorBytes != 0;
        uint8_t sector_bit = 0xff;
        if (sectored) {
            const uint32_t sector = static_cast<uint32_t>(
                line % geom_.lineBytes / geom_.sectorBytes);
            sector_bit = static_cast<uint8_t>(1u << sector);
            line -= line % geom_.lineBytes;
        }
        ++fills_;
        const Addr tag = line / geom_.lineBytes;
        const uint32_t set = mapSet(line, stream);

        CacheFillResult res;
        if (Line *resident = findLine(set, tag)) {
            res.wasPresent = true;
            resident->validSectors |= sector_bit;
            resident->dirty = resident->dirty || write;
            return res;
        }
        installVictim(set, tag, write, stream, cls, sector_bit, res.evicted,
                      res.evictedLine, res.evictedDirty,
                      res.evictedValidSectors);
        return res;
    }

    bool
    probe(Addr line, StreamId stream) const
    {
        const Addr tag = line / geom_.lineBytes;
        return const_cast<RefCache *>(this)->findLine(mapSet(line, stream),
                                                      tag) != nullptr;
    }

    void
    invalidateStream(StreamId stream)
    {
        for (auto &l : lines_) {
            if (l.valid && l.stream == stream) {
                l = Line{};
            }
        }
    }

    void
    setStreamSetWindow(StreamId stream, uint32_t first, uint32_t count)
    {
        for (auto &w : windows_) {
            if (w.stream == stream) {
                w.first = first;
                w.count = count;
                return;
            }
        }
        windows_.push_back({stream, first, count});
    }

    void clearSetWindows() { windows_.clear(); }

    CacheComposition
    composition() const
    {
        CacheComposition comp;
        comp.totalLines = lines_.size();
        for (size_t i = 0; i < lines_.size(); ++i) {
            const Line &l = lines_[i];
            if (!l.valid) {
                continue;
            }
            ++comp.validLines;
            ++comp.byClass[static_cast<size_t>(l.cls)];
            if (const SetWindow *w = windowFor(l.stream)) {
                const uint32_t set = static_cast<uint32_t>(i / geom_.ways);
                if (set < w->first || set >= w->first + w->count) {
                    ++comp.strandedLines;
                }
            }
        }
        return comp;
    }

    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t sectorMisses() const { return sectorMisses_; }
    uint64_t fills() const { return fills_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        uint64_t lastUse = 0;
        StreamId stream = kInvalidStream;
        DataClass cls = DataClass::Unknown;
        uint8_t validSectors = 0;
    };
    struct SetWindow
    {
        StreamId stream = kInvalidStream;
        uint32_t first = 0;
        uint32_t count = 0;
    };

    uint32_t
    mapSet(Addr line, StreamId stream) const
    {
        const uint32_t num_sets = geom_.numSets();
        const Addr blk = line / geom_.lineBytes;
        uint32_t set =
            static_cast<uint32_t>((blk ^ (blk >> 13)) % num_sets);
        if (const SetWindow *w = windowFor(stream)) {
            return w->first + set % w->count;
        }
        return set;
    }

    const SetWindow *
    windowFor(StreamId stream) const
    {
        for (const auto &w : windows_) {
            if (w.stream == stream && w.count > 0) {
                return &w;
            }
        }
        return nullptr;
    }

    Line *
    findLine(uint32_t set, Addr tag)
    {
        Line *base = &lines_[static_cast<size_t>(set) * geom_.ways];
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                return &base[w];
            }
        }
        return nullptr;
    }

    uint32_t
    lruPosition(uint32_t set, const Line *line) const
    {
        const Line *base = &lines_[static_cast<size_t>(set) * geom_.ways];
        uint32_t pos = 0;
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            if (&base[w] != line && base[w].valid &&
                base[w].lastUse > line->lastUse) {
                ++pos;
            }
        }
        return pos;
    }

    void
    installVictim(uint32_t set, Addr tag, bool write, StreamId stream,
                  DataClass cls, uint8_t sector_bit, bool &evicted,
                  Addr &evicted_line, bool &evicted_dirty,
                  uint8_t &evicted_sectors)
    {
        Line *base = &lines_[static_cast<size_t>(set) * geom_.ways];
        Line *victim = nullptr;
        for (uint32_t w = 0; w < geom_.ways; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
        if (victim == nullptr) {
            victim = base;
            for (uint32_t w = 1; w < geom_.ways; ++w) {
                if (base[w].lastUse < victim->lastUse) {
                    victim = &base[w];
                }
            }
            evicted = true;
            evicted_line = victim->tag * geom_.lineBytes;
            evicted_dirty = victim->dirty;
            evicted_sectors = victim->validSectors;
        }
        victim->valid = true;
        victim->dirty = write;
        victim->tag = tag;
        victim->lastUse = ++useCounter_;
        victim->stream = stream;
        victim->cls = cls;
        victim->validSectors = sector_bit;
    }

    CacheGeometry geom_;
    std::vector<Line> lines_;
    std::vector<SetWindow> windows_;
    uint64_t useCounter_ = 0;
    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t sectorMisses_ = 0;
    uint64_t fills_ = 0;
};

/** The keys a fill handed out, copied before the next allocate(). */
std::vector<uint64_t>
keysOf(std::span<const uint64_t> keys)
{
    return {keys.begin(), keys.end()};
}

// ---------------------------------------------------------------------
// Reference MSHR: the original unordered_map + age-deque implementation.
// ---------------------------------------------------------------------

class RefMshr
{
  public:
    RefMshr(uint32_t num_entries, uint32_t max_targets)
        : numEntries_(num_entries), maxTargets_(max_targets)
    {
    }

    Mshr::Outcome
    allocate(Addr line, uint64_t key, Cycle now)
    {
        auto it = table_.find(line);
        if (it != table_.end()) {
            if (it->second.keys.size() >= maxTargets_) {
                return Mshr::Outcome::Stall;
            }
            it->second.keys.push_back(key);
            if (key != Mshr::kVoidKey) {
                ++responseTargets_;
            }
            ++mergedAllocations_;
            return Mshr::Outcome::Merged;
        }
        if (table_.size() >= numEntries_) {
            return Mshr::Outcome::Stall;
        }
        Entry entry;
        entry.keys.push_back(key);
        entry.allocatedAt = now;
        table_.emplace(line, std::move(entry));
        allocationOrder_.emplace_back(line, now);
        if (key != Mshr::kVoidKey) {
            ++responseTargets_;
        }
        ++primaryAllocations_;
        return Mshr::Outcome::NewEntry;
    }

    bool pending(Addr line) const { return table_.count(line) != 0; }

    std::vector<uint64_t>
    keysFor(Addr line) const
    {
        auto it = table_.find(line);
        return it == table_.end() ? std::vector<uint64_t>{}
                                  : it->second.keys;
    }

    bool
    wouldStall(Addr line) const
    {
        auto it = table_.find(line);
        if (it != table_.end()) {
            return it->second.keys.size() >= maxTargets_;
        }
        return table_.size() >= numEntries_;
    }

    std::vector<uint64_t>
    fill(Addr line)
    {
        auto it = table_.find(line);
        if (it == table_.end()) {
            return {};
        }
        std::vector<uint64_t> keys = std::move(it->second.keys);
        for (uint64_t key : keys) {
            if (key != Mshr::kVoidKey) {
                --responseTargets_;
            }
        }
        table_.erase(it);
        ++fillsServed_;
        return keys;
    }

    size_t entriesInUse() const { return table_.size(); }
    uint64_t responseTargets() const { return responseTargets_; }
    uint64_t primaryAllocations() const { return primaryAllocations_; }
    uint64_t mergedAllocations() const { return mergedAllocations_; }
    uint64_t fillsServed() const { return fillsServed_; }

    Cycle
    oldestAllocation() const
    {
        while (!allocationOrder_.empty()) {
            const auto &[line, at] = allocationOrder_.front();
            auto it = table_.find(line);
            if (it != table_.end() && it->second.allocatedAt == at) {
                return at;
            }
            allocationOrder_.pop_front();
        }
        return 0;
    }

    /** Entries sorted by allocation cycle (ties impossible in the test:
     *  the driver strictly increases the clock per allocation). */
    std::vector<Mshr::EntryInfo>
    entries() const
    {
        std::vector<Mshr::EntryInfo> out;
        for (const auto &[line, entry] : table_) {
            Mshr::EntryInfo info;
            info.line = line;
            info.allocatedAt = entry.allocatedAt;
            info.targets = static_cast<uint32_t>(entry.keys.size());
            info.keys = entry.keys;
            out.push_back(std::move(info));
        }
        std::sort(out.begin(), out.end(),
                  [](const Mshr::EntryInfo &a, const Mshr::EntryInfo &b) {
                      return a.allocatedAt < b.allocatedAt;
                  });
        return out;
    }

  private:
    struct Entry
    {
        std::vector<uint64_t> keys;
        Cycle allocatedAt = 0;
    };

    uint32_t numEntries_;
    uint32_t maxTargets_;
    uint64_t responseTargets_ = 0;
    uint64_t primaryAllocations_ = 0;
    uint64_t mergedAllocations_ = 0;
    uint64_t fillsServed_ = 0;
    std::unordered_map<Addr, Entry> table_;
    mutable std::deque<std::pair<Addr, Cycle>> allocationOrder_;
};

// ---------------------------------------------------------------------
// Cache equivalence over random operation sequences.
// ---------------------------------------------------------------------

class CacheEquivalenceSweep : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheEquivalenceSweep, RandomSequenceMatchesReference)
{
    const CacheGeometry geom = GetParam();
    SetAssocCache cache(geom);
    RefCache ref(geom);
    Rng rng(0xc0ffee ^ geom.ways ^ geom.sizeBytes);

    const uint32_t grain =
        geom.sectorBytes != 0 ? geom.sectorBytes : geom.lineBytes;
    // Working set ~2x capacity so evictions are common.
    const uint64_t span = 2ull * geom.sizeBytes;
    const std::vector<StreamId> streams = {0, 1, 2};

    for (int op = 0; op < 20000; ++op) {
        const Addr addr = rng.nextBelow(span / grain) * grain;
        const StreamId stream =
            streams[rng.nextBelow(streams.size())];
        const DataClass cls =
            static_cast<DataClass>(rng.nextBelow(
                static_cast<uint64_t>(DataClass::NumClasses)));
        switch (rng.nextBelow(16)) {
        case 0: { // fill (miss completion or interim re-install)
            const bool write = rng.nextBelow(2) != 0;
            const auto a = cache.fill(addr, write, stream, cls);
            const auto b = ref.fill(addr, write, stream, cls);
            EXPECT_EQ(a.wasPresent, b.wasPresent);
            EXPECT_EQ(a.evicted, b.evicted);
            EXPECT_EQ(a.evictedLine, b.evictedLine);
            EXPECT_EQ(a.evictedDirty, b.evictedDirty);
            EXPECT_EQ(a.evictedValidSectors, b.evictedValidSectors);
            break;
        }
        case 1: { // probe
            EXPECT_EQ(cache.probe(addr, stream), ref.probe(addr, stream));
            break;
        }
        case 2: { // invalidate one stream
            cache.invalidateStream(stream);
            ref.invalidateStream(stream);
            break;
        }
        case 3: { // set-window churn
            const uint32_t sets = geom.numSets();
            const uint32_t count =
                1 + static_cast<uint32_t>(rng.nextBelow(sets));
            const uint32_t first =
                static_cast<uint32_t>(rng.nextBelow(sets - count + 1));
            cache.setStreamSetWindow(stream, first, count);
            ref.setStreamSetWindow(stream, first, count);
            break;
        }
        case 4: { // drop all windows
            cache.clearSetWindows();
            ref.clearSetWindows();
            break;
        }
        default: { // demand access (the hot path)
            const bool write = rng.nextBelow(4) == 0;
            const bool alloc = rng.nextBelow(8) != 0;
            const auto a = cache.access(addr, write, stream, cls, alloc);
            const auto b = ref.access(addr, write, stream, cls, alloc);
            EXPECT_EQ(a.hit, b.hit);
            EXPECT_EQ(a.sectorMiss, b.sectorMiss);
            EXPECT_EQ(a.hitLruPos, b.hitLruPos);
            EXPECT_EQ(a.evicted, b.evicted);
            EXPECT_EQ(a.evictedLine, b.evictedLine);
            EXPECT_EQ(a.evictedDirty, b.evictedDirty);
            EXPECT_EQ(a.evictedValidSectors, b.evictedValidSectors);
            break;
        }
        }
        if (op % 1024 == 0) {
            const auto ca = cache.composition();
            const auto cb = ref.composition();
            EXPECT_EQ(ca.validLines, cb.validLines);
            EXPECT_EQ(ca.strandedLines, cb.strandedLines);
            EXPECT_EQ(ca.byClass, cb.byClass);
        }
    }
    EXPECT_EQ(cache.accesses(), ref.accesses());
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.sectorMisses(), ref.sectorMisses());
    EXPECT_EQ(cache.fills(), ref.fills());
}

TEST_P(CacheEquivalenceSweep, FillSequenceMatchesReference)
{
    // Dedicated fill-heavy sequence (the mixed test randomizes the write
    // flag awkwardly for fills; this one drives both models with
    // identical explicit arguments throughout).
    const CacheGeometry geom = GetParam();
    SetAssocCache cache(geom);
    RefCache ref(geom);
    Rng rng(0xfeed ^ geom.ways);

    const uint32_t grain =
        geom.sectorBytes != 0 ? geom.sectorBytes : geom.lineBytes;
    const uint64_t span = 2ull * geom.sizeBytes;
    for (int op = 0; op < 10000; ++op) {
        const Addr addr = rng.nextBelow(span / grain) * grain;
        const bool write = rng.nextBelow(3) == 0;
        const StreamId stream = static_cast<StreamId>(rng.nextBelow(2));
        if (rng.nextBelow(2) == 0) {
            const auto a =
                cache.access(addr, write, stream, DataClass::Compute);
            const auto b =
                ref.access(addr, write, stream, DataClass::Compute);
            EXPECT_EQ(a.hit, b.hit);
            EXPECT_EQ(a.evicted, b.evicted);
            EXPECT_EQ(a.evictedLine, b.evictedLine);
        } else {
            const auto a =
                cache.fill(addr, write, stream, DataClass::Compute);
            const auto b =
                ref.fill(addr, write, stream, DataClass::Compute);
            EXPECT_EQ(a.wasPresent, b.wasPresent);
            EXPECT_EQ(a.evicted, b.evicted);
            EXPECT_EQ(a.evictedLine, b.evictedLine);
            EXPECT_EQ(a.evictedDirty, b.evictedDirty);
            EXPECT_EQ(a.evictedValidSectors, b.evictedValidSectors);
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.fills(), ref.fills());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalenceSweep,
    ::testing::Values(
        // Pow2 sets, unsectored: the fast shift/mask path.
        CacheGeometry{64 * 1024, 8, kLineBytes, 0},
        // Sectored (Ampere-style 32 B sectors).
        CacheGeometry{32 * 1024, 4, kLineBytes, 32},
        // Non-pow2 set count (24 sets): the division fallback.
        CacheGeometry{24 * 4 * kLineBytes, 4, kLineBytes, 0},
        // Direct-mapped.
        CacheGeometry{16 * kLineBytes, 1, kLineBytes, 0}));

// ---------------------------------------------------------------------
// MSHR equivalence over random allocate/fill interleavings.
// ---------------------------------------------------------------------

class MshrEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(MshrEquivalenceSweep, RandomSequenceMatchesReference)
{
    const auto [entries, targets] = GetParam();
    Mshr mshr(entries, targets);
    RefMshr ref(entries, targets);
    Rng rng(0x5eed ^ entries ^ (targets << 8));

    // Few distinct lines relative to capacity so merges and stalls both
    // happen; strictly increasing clock so entries() order is total.
    const uint64_t distinct_lines = entries * 2;
    Cycle now = 0;
    std::vector<Addr> live;

    for (int op = 0; op < 30000; ++op) {
        const Addr line =
            (1 + rng.nextBelow(distinct_lines)) * kLineBytes;
        switch (rng.nextBelow(8)) {
        case 0: { // fill a pending line (if any)
            if (!live.empty()) {
                const Addr victim =
                    live[rng.nextBelow(live.size())];
                const std::vector<uint64_t> got = keysOf(mshr.fill(victim));
                EXPECT_EQ(got, ref.fill(victim));
                live.erase(std::find(live.begin(), live.end(), victim));
            }
            break;
        }
        case 1: { // fill a line that is not pending
            const Addr absent =
                (distinct_lines + 1 + rng.nextBelow(16)) * kLineBytes;
            EXPECT_TRUE(mshr.fill(absent).empty());
            EXPECT_TRUE(ref.fill(absent).empty());
            break;
        }
        case 2: { // read-only probes
            EXPECT_EQ(mshr.lookup(line).pending, ref.pending(line));
            EXPECT_EQ(mshr.wouldStall(mshr.lookup(line)),
                      ref.wouldStall(line));
            EXPECT_EQ(mshr.keysFor(line), ref.keysFor(line));
            EXPECT_EQ(mshr.oldestAllocation(), ref.oldestAllocation());
            break;
        }
        default: { // allocate (vast majority: the hot path)
            ++now;
            const uint64_t key = rng.nextBelow(32) == 0
                ? Mshr::kVoidKey
                : rng.next();
            const auto a = mshr.allocate(line, key, now);
            const auto b = ref.allocate(line, key, now);
            EXPECT_EQ(a, b);
            if (a == Mshr::Outcome::NewEntry) {
                live.push_back(line);
            }
            break;
        }
        }
        EXPECT_EQ(mshr.entriesInUse(), ref.entriesInUse());
        EXPECT_EQ(mshr.responseTargets(), ref.responseTargets());
    }

    EXPECT_EQ(mshr.primaryAllocations(), ref.primaryAllocations());
    EXPECT_EQ(mshr.mergedAllocations(), ref.mergedAllocations());
    EXPECT_EQ(mshr.fillsServed(), ref.fillsServed());

    // Final structural comparison: same entries, same allocation order,
    // same merged-key order within each entry.
    const auto ea = mshr.entries();
    const auto eb = ref.entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].line, eb[i].line);
        EXPECT_EQ(ea[i].allocatedAt, eb[i].allocatedAt);
        EXPECT_EQ(ea[i].targets, eb[i].targets);
        EXPECT_EQ(ea[i].keys, eb[i].keys);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MshrEquivalenceSweep,
    ::testing::Values(std::make_tuple(4u, 2u), std::make_tuple(32u, 8u),
                      std::make_tuple(64u, 16u),
                      std::make_tuple(256u, 4u)));

TEST(MshrEquivalence, TableWrapsAndReusesSlotsWithoutCollisionLoss)
{
    // Churn far more lines through a tiny MSHR than its table has slots;
    // open addressing must keep every lookup exact across the backward-
    // shift deletions.
    Mshr mshr(4, 2);
    RefMshr ref(4, 2);
    Cycle now = 0;
    for (uint64_t round = 0; round < 5000; ++round) {
        const Addr line = (round % 13 + 1) * kLineBytes * 64;
        ++now;
        EXPECT_EQ(mshr.allocate(line, round, now),
                  ref.allocate(line, round, now));
        if (round % 3 == 0) {
            const Addr victim = ((round / 3) % 13 + 1) * kLineBytes * 64;
            EXPECT_EQ(keysOf(mshr.fill(victim)), ref.fill(victim));
        }
        EXPECT_EQ(mshr.entriesInUse(), ref.entriesInUse());
        EXPECT_EQ(mshr.oldestAllocation(), ref.oldestAllocation());
    }
}

TEST_P(MshrEquivalenceSweep, SingleProbeMatchesReference)
{
    // The cache levels' per-line pattern: one lookup() answers the
    // refusal and merge tests and then drives the allocation.
    const auto [entries, targets] = GetParam();
    Mshr mshr(entries, targets);
    RefMshr ref(entries, targets);
    Rng rng(0x1b0b ^ entries ^ (targets << 8));
    const uint64_t distinct_lines = entries * 2;
    Cycle now = 0;
    std::vector<Addr> live;
    uint64_t stalls = 0;
    uint64_t merges = 0;
    for (int op = 0; op < 30000; ++op) {
        const Addr line = (1 + rng.nextBelow(distinct_lines)) * kLineBytes;
        if (rng.nextBelow(5) == 0 && !live.empty()) {
            const Addr victim = live[rng.nextBelow(live.size())];
            EXPECT_EQ(keysOf(mshr.fill(victim)), ref.fill(victim));
            live.erase(std::find(live.begin(), live.end(), victim));
            continue;
        }
        ++now;
        const Mshr::Lookup at = mshr.lookup(line);
        ASSERT_EQ(at.pending, ref.pending(line));
        ASSERT_EQ(mshr.wouldStall(at), ref.wouldStall(line));
        if (mshr.wouldStall(at)) {
            ++stalls;
            // A refused request acts on nothing; the next probe is fresh.
            if (rng.nextBelow(2) == 0) {
                continue;
            }
        }
        const uint64_t key = rng.next();
        const auto a = mshr.allocate(at, line, key, now);
        ASSERT_EQ(a, ref.allocate(line, key, now));
        merges += a == Mshr::Outcome::Merged;
        if (a == Mshr::Outcome::NewEntry) {
            live.push_back(line);
        }
        ASSERT_EQ(mshr.entriesInUse(), ref.entriesInUse());
        ASSERT_EQ(mshr.responseTargets(), ref.responseTargets());
        ASSERT_EQ(mshr.oldestAllocation(), ref.oldestAllocation());
    }
    EXPECT_EQ(mshr.primaryAllocations(), ref.primaryAllocations());
    EXPECT_EQ(mshr.mergedAllocations(), ref.mergedAllocations());
    EXPECT_GT(stalls, 0u);
    EXPECT_GT(merges, 0u);
    const auto ea = mshr.entries();
    const auto eb = ref.entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].line, eb[i].line);
        EXPECT_EQ(ea[i].keys, eb[i].keys);
    }
}

// ---------------------------------------------------------------------
// DueQueue equivalence: the L2's fill and response FIFOs replaced
// std::multimap<Cycle, T> event queues. Replay the L2's usage — mostly
// non-decreasing pushes, equal keys, and Delay-style re-inserts below
// the back taken while draining the due front — against the multimap,
// which must pop the same items in the same order.
// ---------------------------------------------------------------------

TEST(DueQueueEquivalence, RandomPushPopMatchesMultimap)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        DueQueue<uint64_t> queue;
        std::multimap<Cycle, uint64_t> ref;
        Rng rng(0xd0e ^ (seed << 12));
        Cycle now = 0;
        Cycle channel = 0;   // a serialized producer's freeAt
        uint64_t next_id = 0;
        uint64_t delayed = 0;
        for (int step = 0; step < 4000; ++step) {
            ++now;
            // In-order producers: due = max(now, freeAt) + latency, so
            // the keys never decrease and often repeat.
            const uint64_t pushes = rng.nextBelow(4);
            for (uint64_t i = 0; i < pushes; ++i) {
                channel = std::max(channel, now) + rng.nextBelow(2);
                const Cycle due = channel + 20;
                queue.push(due, next_id);
                ref.emplace(due, next_id);
                ++next_id;
            }
            // Drain what is due; re-insert some pops with a delay, the
            // way the fault hook's Delay action does.
            while (queue.dueBy(now)) {
                ASSERT_FALSE(ref.empty());
                ASSERT_LE(ref.begin()->first, now);
                const auto [due, id] = queue.pop();
                auto node = ref.extract(ref.begin());
                ASSERT_EQ(due, node.key());
                ASSERT_EQ(id, node.mapped());
                if (rng.nextBelow(6) == 0) {
                    const Cycle later = now + 1 + rng.nextBelow(40);
                    queue.push(later, id);
                    ref.emplace(later, id);
                    ++delayed;
                }
            }
            ASSERT_FALSE(!ref.empty() && ref.begin()->first <= now);
            ASSERT_EQ(queue.size(), ref.size());
            ASSERT_TRUE(queue.ordered());
            if (!ref.empty()) {
                ASSERT_EQ(queue.frontDue(), ref.begin()->first);
            }
        }
        // What is left must match entry for entry, in order.
        EXPECT_TRUE(std::equal(queue.begin(), queue.end(), ref.begin(),
                               ref.end(), [](const auto &a, const auto &b) {
                                   return a.first == b.first &&
                                       a.second == b.second;
                               }));
        EXPECT_GT(delayed, 100u);
    }
}

TEST(DueQueueEquivalence, OutOfOrderPushLandsAfterEqualKeys)
{
    DueQueue<int> queue;
    queue.push(10, 1);
    queue.push(20, 2);
    queue.push(20, 3);
    queue.push(30, 4);
    queue.push(20, 5);   // below the back: after the existing 20s
    queue.push(5, 6);    // below everything: first
    std::vector<int> order;
    while (!queue.empty()) {
        order.push_back(queue.pop().second);
    }
    EXPECT_EQ(order, (std::vector<int>{6, 1, 2, 3, 5, 4}));
}

TEST(DueQueueEquivalence, RingWrapAroundWithDelayReinsertsMatchesMultimap)
{
    // A shallow queue cycled thousands of times: the ring's head wraps
    // over and over, and delay re-inserts land behind later entries
    // across the wrap point.
    DueQueue<uint64_t> queue;
    std::multimap<Cycle, uint64_t> ref;
    Rng rng(0x7a9);
    uint64_t next_id = 0;
    uint64_t delayed = 0;
    for (Cycle now = 1; now < 20000; ++now) {
        if (rng.nextBelow(3) != 0) {
            const Cycle due = now + 5;
            queue.push(due, next_id);
            ref.emplace(due, next_id);
            ++next_id;
        }
        while (queue.dueBy(now)) {
            const auto [due, id] = queue.pop();
            auto node = ref.extract(ref.begin());
            ASSERT_EQ(due, node.key());
            ASSERT_EQ(id, node.mapped());
            if (rng.nextBelow(4) == 0) {
                // Behind every queued entry or among them.
                const Cycle later = now + 1 + rng.nextBelow(8);
                queue.push(later, id);
                ref.emplace(later, id);
                ++delayed;
            }
        }
        ASSERT_EQ(queue.size(), ref.size());
        ASSERT_TRUE(queue.ordered());
        ASSERT_TRUE(std::equal(queue.begin(), queue.end(), ref.begin(),
                               ref.end(), [](const auto &a, const auto &b) {
                                   return a.first == b.first &&
                                       a.second == b.second;
                               }));
    }
    // The queue never held more than a few entries, so 20k pushes went
    // round the ring many times.
    EXPECT_GT(next_id, 10000u);
    EXPECT_GT(delayed, 1000u);
}

// ---------------------------------------------------------------------
// Park wheel against a std::multimap of (cycle, warp slot). The SM pops
// the slots due at each step and sleeps until the earliest park left;
// both must agree after every pop, for bursts of same-cycle parks, parks
// past the wheel's span, ones pushed for a cycle already popped, and
// long sleeps.
// ---------------------------------------------------------------------

class MultimapParks
{
  public:
    void push(Cycle when, uint32_t slot) { parks_.emplace(when, slot); }

    /** Pop everything due by @p now as a slot mask. */
    uint64_t
    popDue(Cycle now)
    {
        uint64_t due = 0;
        while (!parks_.empty() && parks_.begin()->first <= now) {
            due |= uint64_t{1} << parks_.begin()->second;
            parks_.erase(parks_.begin());
        }
        return due;
    }

    Cycle
    nextDue() const
    {
        return parks_.empty() ? kNeverCycle : parks_.begin()->first;
    }

  private:
    std::multimap<Cycle, uint32_t> parks_;
};

TEST(ParkWheelEquivalence, RandomScheduleMatchesMultimap)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        ParkWheel wheel;
        MultimapParks ref;
        Rng rng(0xb0b ^ (seed << 16));
        Cycle now = 0;
        uint64_t far = 0;
        uint64_t late = 0;
        uint64_t popped = 0;
        for (int step = 0; step < 20000; ++step) {
            // Pushes between steps: ALU-like latencies, bursts on one
            // cycle, parks past the span, and late ones for a cycle the
            // last pop already covered.
            const uint64_t pushes = rng.nextBelow(5);
            const Cycle burst = now + 1 + rng.nextBelow(8);
            for (uint64_t i = 0; i < pushes; ++i) {
                Cycle when;
                switch (rng.nextBelow(6)) {
                  case 0:
                    when = burst;
                    break;
                  case 1:
                    when = now + ParkWheel::kSpan +
                           rng.nextBelow(3 * ParkWheel::kSpan);
                    ++far;
                    break;
                  case 2:
                    when = now > 3 ? now - rng.nextBelow(3) : now;
                    ++late;
                    break;
                  default:
                    when = now + 1 + rng.nextBelow(40);
                    break;
                }
                const uint32_t slot =
                    static_cast<uint32_t>(rng.nextBelow(64));
                wheel.push(when, slot);
                ref.push(when, slot);
            }
            ASSERT_EQ(wheel.nextDue(), ref.nextDue());
            // Step: usually the next cycle, sometimes a sleep until the
            // earliest park, sometimes a sleep far past it.
            switch (rng.nextBelow(4)) {
              case 0:
                if (ref.nextDue() != kNeverCycle) {
                    now = std::max(now + 1, ref.nextDue());
                    break;
                }
                [[fallthrough]];
              case 1:
                now += 1 + rng.nextBelow(3 * ParkWheel::kSpan);
                break;
              default:
                ++now;
                break;
            }
            const uint64_t got = wheel.popDue(now);
            ASSERT_EQ(got, ref.popDue(now)) << "seed " << seed
                                            << " cycle " << now;
            popped += static_cast<uint64_t>(__builtin_popcountll(got));
            ASSERT_EQ(wheel.nextDue(), ref.nextDue());
        }
        EXPECT_GT(far, 1000u);
        EXPECT_GT(late, 1000u);
        EXPECT_GT(popped, 10000u);
    }
}

TEST(ParkWheelEquivalence, OnlyFarParksRefileOntoTheWheel)
{
    // Nothing inside the window: every park starts on the far list and
    // must reach the wheel (or pop) as the clock walks to it.
    ParkWheel wheel;
    MultimapParks ref;
    for (uint32_t i = 0; i < 50; ++i) {
        const Cycle when = 1000 + 37 * i;
        wheel.push(when, i);
        ref.push(when, i);
    }
    for (Cycle now = 0; now < 3000; now += 7) {
        ASSERT_EQ(wheel.popDue(now), ref.popDue(now)) << now;
        ASSERT_EQ(wheel.nextDue(), ref.nextDue()) << now;
    }
    EXPECT_EQ(wheel.nextDue(), kNeverCycle);
}

TEST(ParkWheelEquivalence, PastDuePushesPopAtTheNextStep)
{
    // A landing delivered after the pop of its own cycle (or earlier
    // ones) is due at once: the next pop hands it out, whatever the
    // distance behind the wheel's base.
    ParkWheel wheel;
    MultimapParks ref;
    wheel.popDue(500);
    ref.popDue(500);
    const Cycle past[] = {500, 499, 437, 436, 100, 0};
    for (uint32_t i = 0; i < std::size(past); ++i) {
        wheel.push(past[i], i);
        ref.push(past[i], i);
        ASSERT_EQ(wheel.nextDue(), ref.nextDue()) << i;
    }
    wheel.push(501, 10);
    ref.push(501, 10);
    EXPECT_EQ(wheel.popDue(500), ref.popDue(500));
    EXPECT_EQ(wheel.nextDue(), Cycle{501});
    EXPECT_EQ(wheel.popDue(501), ref.popDue(501));
    EXPECT_EQ(wheel.nextDue(), kNeverCycle);
}

/** Cycles a one-warp chain of @p n dependent SFU ops takes on an SM
 *  whose SFU latency is @p latency. */
Cycle
sfuChainCycles(uint32_t n, Cycle latency)
{
    GpuConfig cfg;
    cfg.name = "chain";
    cfg.numSms = 1;
    cfg.l2.numBanks = 1;
    cfg.sm.sfuLatency = latency;
    cfg.finalize();
    Gpu gpu(cfg);
    TraceBuilder tb;
    tb.aluChain(Opcode::MUFU_SIN, 4, 5, n);
    tb.exit();
    CtaTrace cta;
    cta.warps.push_back(tb.take());
    KernelInfo k;
    k.name = "chain";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, std::move(k));
    const auto result = gpu.run(10'000'000);
    EXPECT_TRUE(result.completed);
    return result.cycles;
}

TEST(ParkWheelEquivalence, ParksPastTheSpanEndOnTime)
{
    // Each extra dependent op waits exactly one latency for its source,
    // whether its park ends inside the wheel's span or past it.
    for (Cycle latency : {Cycle{5}, Cycle{ParkWheel::kSpan - 1},
                          Cycle{ParkWheel::kSpan},
                          Cycle{ParkWheel::kSpan + 1}, Cycle{300}}) {
        EXPECT_EQ(sfuChainCycles(20, latency) - sfuChainCycles(10, latency),
                  10 * latency)
            << "latency " << latency;
    }
}

// ---------------------------------------------------------------------
// Unit-pool ring against the min_element scan it replaced: the same
// earliest-free time at every issue attempt, over random issue timing.
// ---------------------------------------------------------------------

TEST(UnitPoolEquivalence, RingMatchesMinElementScan)
{
    Rng rng(0x0b1);
    for (uint32_t units = 1; units <= UnitPool::kMaxUnits; ++units) {
        for (uint32_t interval : {0u, 1u, 2u, 8u, 33u}) {
            UnitPool ring(units, interval);
            std::vector<Cycle> scan(units, 0);
            Cycle now = 0;
            uint64_t issued = 0;
            for (int step = 0; step < 5000; ++step) {
                now += rng.nextBelow(4) == 0 ? rng.nextBelow(50) : 0;
                const Cycle min_free =
                    *std::min_element(scan.begin(), scan.end());
                ASSERT_EQ(ring.minFree(), min_free)
                    << units << " units, interval " << interval;
                if (min_free > now) {
                    ++now;
                    continue;
                }
                *std::min_element(scan.begin(), scan.end()) = now + interval;
                ring.take(now);
                ++issued;
            }
            EXPECT_GT(issued, 100u);
        }
    }
}

// ---------------------------------------------------------------------
// Shared-memory bank conflicts: the lane-linear fast path against the
// general distinct-word scan.
// ---------------------------------------------------------------------

uint32_t
referenceSmemConflicts(const std::vector<Addr> &addrs, uint32_t banks)
{
    std::vector<uint32_t> counts(banks, 0);
    std::vector<Addr> seen;
    uint32_t worst = 1;
    for (Addr a : addrs) {
        const Addr word = a / 4;
        if (std::find(seen.begin(), seen.end(), word) != seen.end()) {
            continue;
        }
        seen.push_back(word);
        worst = std::max(worst, ++counts[word % banks]);
    }
    return worst;
}

TEST(SmemBanksEquivalence, FastPathMatchesGeneralScan)
{
    Rng rng(0x5ee);
    for (uint32_t banks : {1u, 4u, 16u, 32u, 33u}) {
        SmemBanks model(banks);
        for (int trial = 0; trial < 3000; ++trial) {
            const uint32_t lanes =
                static_cast<uint32_t>(rng.nextBelow(kWarpSize + 1));
            const Addr base = rng.nextBelow(1 << 16);
            std::vector<Addr> addrs;
            switch (trial % 5) {
              case 0:   // lane-linear words, byte-aligned or not
                for (uint32_t l = 0; l < lanes; ++l) {
                    addrs.push_back(base + 4 * l);
                }
                break;
              case 1:   // broadcast
                addrs.assign(lanes, base);
                break;
              case 2:   // strided: 2, 8 or 33 words apart
                for (uint32_t l = 0; l < lanes; ++l) {
                    const uint32_t stride = 4 * (trial % 3 == 0   ? 2
                                                 : trial % 3 == 1 ? 8
                                                                  : 33);
                    addrs.push_back(base + stride * l);
                }
                break;
              case 3:   // linear but one lane repeats its neighbour
                for (uint32_t l = 0; l < lanes; ++l) {
                    addrs.push_back(base + 4 * l);
                }
                if (lanes > 1) {
                    addrs[rng.nextBelow(lanes - 1) + 1] = addrs[0];
                }
                break;
              default:  // random words in a small window
                for (uint32_t l = 0; l < lanes; ++l) {
                    addrs.push_back(base + rng.nextBelow(512));
                }
                break;
            }
            ASSERT_EQ(model.conflictCycles(addrs),
                      referenceSmemConflicts(addrs, banks))
                << "banks " << banks << " trial " << trial;
        }
    }
}

// ---------------------------------------------------------------------
// WorkSet: the memory phase and the L2 walk their work sets instead of
// scanning; the walk must visit exactly the members a full scan from the
// same start would, in the same order, with erasure during the walk.
// ---------------------------------------------------------------------

TEST(WorkSetEquivalence, RotationWalkMatchesFullScan)
{
    Rng rng(0x5e7);
    for (size_t size : {1u, 5u, 63u, 64u, 65u, 130u}) {
        WorkSet set(size);
        std::vector<bool> ref(size, false);
        for (int round = 0; round < 400; ++round) {
            const size_t id = rng.nextBelow(size);
            if (rng.nextBelow(3) == 0) {
                set.erase(id);
                ref[id] = false;
            } else {
                set.insert(id);
                ref[id] = true;
            }
            const size_t start = rng.nextBelow(size);
            std::vector<size_t> want;
            for (size_t i = 0; i < size; ++i) {
                if (ref[(start + i) % size]) {
                    want.push_back((start + i) % size);
                }
            }
            std::vector<size_t> got;
            // Erase every third visited member mid-walk, as the memory
            // phase drops drained SMs.
            set.forEachFrom(start, [&](size_t member) {
                got.push_back(member);
                if (got.size() % 3 == 0) {
                    set.erase(member);
                    ref[member] = false;
                }
            });
            ASSERT_EQ(got, want) << "size " << size << " start " << start;
            size_t members = 0;
            for (size_t i = 0; i < size; ++i) {
                ASSERT_EQ(set.contains(i), ref[i]);
                members += ref[i] ? 1 : 0;
            }
            ASSERT_EQ(set.count(), members);
            ASSERT_EQ(set.empty(), members == 0);
        }
    }
}

// ---------------------------------------------------------------------
// SM arena reuse: CTA slots and warp bookkeeping are pooled across
// kernel launches; re-running the same kernel on a warm GPU must behave
// identically (instruction counts are trace-determined and exact).
// ---------------------------------------------------------------------

GpuConfig
arenaGpu()
{
    GpuConfig cfg;
    cfg.name = "arena";
    cfg.numSms = 2;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 128.0;
    cfg.l2.numBanks = 2;
    cfg.l2.bankGeometry = {64 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

ComputeKernelDesc
arenaDesc(const std::string &name)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = 24; // far more CTAs than concurrent slots: reuse within a run
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.fp32Ops = 8;
    d.intOps = 4;
    d.loads = {{MemPatternKind::Streaming, 0x100000, 1 << 18, 4, 2, 128}};
    d.store = {MemPatternKind::Streaming, 0x200000, 1 << 18, 4, 1, 128};
    d.hasStore = true;
    return d;
}

TEST(SmArenaReuse, RepeatedKernelsScaleExactlyAndConserveCounters)
{
    // Reference: one kernel alone.
    Gpu single(arenaGpu());
    const StreamId s1 = single.createStream("compute");
    single.enqueueKernel(s1, buildComputeKernel(arenaDesc("k")));
    ASSERT_TRUE(single.run(10'000'000).completed);
    const uint64_t one_instr = single.stats().stream(s1).instructions;
    const uint64_t one_ctas = single.stats().stream(s1).ctasLaunched;
    ASSERT_GT(one_instr, 0u);

    // Same kernel three times back to back: every launch after the first
    // reuses pooled CTA slots, warp-slot vectors, and tracker entries.
    Gpu repeat(arenaGpu());
    const StreamId s3 = repeat.createStream("compute");
    for (int i = 0; i < 3; ++i) {
        repeat.enqueueKernel(s3, buildComputeKernel(arenaDesc("k")));
    }
    const auto r3 = repeat.run(10'000'000);
    ASSERT_TRUE(r3.completed);

    // Instructions and CTA launches are trace-determined: arena reuse
    // must not lose or duplicate a single one.
    EXPECT_EQ(repeat.stats().stream(s3).instructions, 3 * one_instr);
    EXPECT_EQ(repeat.stats().stream(s3).ctasLaunched, 3 * one_ctas);
    EXPECT_EQ(repeat.stats().stream(s3).kernelsCompleted, 3u);

    // The conservation audit walks the pooled structures directly; a
    // stale slot or leaked tracker shows up as a flow violation.
    std::vector<integrity::InvariantViolation> violations;
    audit::auditAll(repeat.stats(), repeat.constSms(), repeat.l2(),
                    r3.cycles, violations);
    for (const auto &v : violations) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }

    // Determinism across a fresh identical GPU: the arena must not make
    // behaviour depend on pool history.
    Gpu repeat2(arenaGpu());
    const StreamId s3b = repeat2.createStream("compute");
    for (int i = 0; i < 3; ++i) {
        repeat2.enqueueKernel(s3b, buildComputeKernel(arenaDesc("k")));
    }
    const auto r3b = repeat2.run(10'000'000);
    ASSERT_TRUE(r3b.completed);
    EXPECT_EQ(repeat2.stats().stream(s3b).instructions,
              repeat.stats().stream(s3).instructions);
    EXPECT_EQ(r3b.cycles, r3.cycles);
}

// ---------------------------------------------------------------------
// Memory-line structures against the forms they replaced: the L2's
// per-bank wake against the busy-bank poll, the flat MSHR on a wrapped
// probe cluster, the ring FIFO against std::deque, and the cache's
// sentinel-tag hit test and one-pass victim against the two-pass scans
// of the reference cache.
// ---------------------------------------------------------------------

/**
 * Reference L2: the busy-bank poll the per-bank wake replaced. Every
 * cycle it visits each bank with a queued request, in id order, and the
 * bank returns at once when its head has not crossed the icnt or the
 * bank is still busy. Built from the same cache, MSHR, DRAM and icnt
 * parts as L2Subsystem, with std::deque bank queues, no bank masks and
 * no fault hook.
 */
class RefPollL2
{
  public:
    explicit RefPollL2(const L2Config &cfg)
        : cfg_(cfg),
          requestLink_(cfg.icntBytesPerCycle, cfg.icntLatency),
          responseLink_(cfg.icntBytesPerCycle, cfg.icntLatency),
          dram_(cfg.dramBytesPerCycle, cfg.dramLatency)
    {
        for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
            banks_.emplace_back(cfg_.bankGeometry);
            mshrs_.emplace_back(cfg_.mshrEntriesPerBank,
                                cfg_.mshrTargetsPerEntry);
        }
        queues_.resize(cfg_.numBanks);
        freeAt_.assign(cfg_.numBanks, 0);
    }

    L2Subsystem::AccessListener onAccess;
    L2Subsystem::ResponseHandler onResponse;
    /** Heads refused on a full MSHR (each retried the next cycle). */
    uint64_t stalls = 0;

    bool
    submit(MemRequest req, Cycle now)
    {
        const Addr blk = req.line / kLineBytes;
        const uint32_t bank = static_cast<uint32_t>(
            (blk ^ (blk >> 7) ^ (blk >> 17)) % cfg_.numBanks);
        if (queues_[bank].size() >= cfg_.bankQueueCapacity) {
            return false;
        }
        req.readyAt =
            requestLink_.transfer(now, req.write ? kLineBytes + 8 : 8);
        queues_[bank].push_back(req);
        return true;
    }

    void
    step(Cycle now)
    {
        while (fills_.dueBy(now)) {
            auto [ready, pf] = fills_.pop();
            const auto res = banks_[pf.second].fill(
                pf.first.line, pf.first.write, pf.first.stream,
                pf.first.dataClass);
            if (res.evicted && res.evictedDirty) {
                dram_.service(ready, kLineBytes, res.evictedLine);
            }
            for (uint64_t key : mshrs_[pf.second].fill(pf.first.line)) {
                if (key == MemRequest::kNoCompletion) {
                    continue;
                }
                MemRequest resp = pf.first;
                resp.smId = static_cast<uint32_t>((key >> 48) - 1);
                resp.completionKey = key & ((1ull << 48) - 1);
                respond(resp, ready);
            }
        }
        const Cycle occupancy = static_cast<Cycle>(
            std::max(1.0, kLineBytes / cfg_.bankBytesPerCycle));
        for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
            if (!queues_[b].empty()) {
                serviceBank(b, now, occupancy);
            }
        }
        while (responses_.dueBy(now)) {
            onResponse(responses_.pop().second);
        }
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle wake = kNeverCycle;
        auto consider = [&](Cycle at) {
            wake = std::min(wake, std::max(at, now + 1));
        };
        if (!fills_.empty()) {
            consider(fills_.frontDue());
        }
        if (!responses_.empty()) {
            consider(responses_.frontDue());
        }
        for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
            if (!queues_[b].empty()) {
                consider(std::max(queues_[b].front().readyAt, freeAt_[b]));
            }
        }
        return wake;
    }

    bool
    idle() const
    {
        for (const auto &q : queues_) {
            if (!q.empty()) {
                return false;
            }
        }
        return fills_.empty() && responses_.empty();
    }

    uint64_t dramRequests() const { return dram_.requests(); }

  private:
    void
    respond(const MemRequest &req, Cycle ready)
    {
        if (req.expectsResponse()) {
            responses_.push(responseLink_.transfer(ready, kLineBytes + 8),
                            req);
        }
    }

    void
    serviceBank(uint32_t b, Cycle now, Cycle occupancy)
    {
        auto &queue = queues_[b];
        if (queue.front().readyAt > now || freeAt_[b] > now) {
            return;
        }
        const MemRequest req = queue.front();
        const uint64_t key = req.expectsResponse()
            ? (static_cast<uint64_t>(req.smId) + 1) << 48 | req.completionKey
            : MemRequest::kNoCompletion;
        Mshr &mshr = mshrs_[b];
        const Mshr::Lookup at = mshr.lookup(req.line);
        if (at.pending) {
            if (mshr.allocate(at, req.line, key, now) ==
                Mshr::Outcome::Stall) {
                ++stalls;
                return;
            }
            onAccess(req.stream, req.line, false, 0);
            freeAt_[b] = now + occupancy;
            queue.pop_front();
            return;
        }
        if (mshr.full()) {
            ++stalls;
            return;
        }
        const auto res =
            banks_[b].access(req.line, req.write, req.stream, req.dataClass);
        onAccess(req.stream, req.line, res.hit, res.hitLruPos);
        if (res.hit) {
            respond(req, now + cfg_.l2Latency);
            freeAt_[b] = now + occupancy;
            queue.pop_front();
            return;
        }
        if (res.evicted && res.evictedDirty) {
            dram_.service(now, kLineBytes, res.evictedLine);
        }
        mshr.allocate(at, req.line, key, now);
        fills_.push(dram_.service(now, kLineBytes, req.line), {req, b});
        freeAt_[b] = now + occupancy;
        queue.pop_front();
    }

    L2Config cfg_;
    std::vector<SetAssocCache> banks_;
    std::vector<Mshr> mshrs_;
    std::vector<std::deque<MemRequest>> queues_;
    std::vector<Cycle> freeAt_;
    IcntLink requestLink_;
    IcntLink responseLink_;
    DramChannel dram_;
    DueQueue<std::pair<MemRequest, uint32_t>> fills_;
    DueQueue<MemRequest> responses_;
};

struct L2Event
{
    Cycle at;
    StreamId stream;
    Addr line;
    bool hit;
    uint32_t lruPos;
    bool operator==(const L2Event &) const = default;
};

struct L2Response
{
    Cycle at;
    Addr line;
    uint32_t smId;
    uint64_t key;
    bool operator==(const L2Response &) const = default;
};

class BankWakeSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BankWakeSweep, ServiceOrderAndResponseCyclesMatchBusyBankPoll)
{
    // Few MSHR entries and targets, a small set of hot lines and a tiny
    // bank array: heads stall on full MSHRs and target lists, merge,
    // hit, miss and evict dirty lines, and several banks fall due in
    // the same cycle.
    const uint32_t banks = GetParam();
    L2Config cfg;
    cfg.numBanks = banks;
    cfg.bankGeometry = CacheGeometry{8 * 1024, 4, kLineBytes};
    cfg.mshrEntriesPerBank = 2;
    cfg.mshrTargetsPerEntry = 2;
    cfg.bankQueueCapacity = 6;
    cfg.l2Latency = 7;
    cfg.icntLatency = 3;
    cfg.dramLatency = 30;
    cfg.dramBytesPerCycle = 64;
    cfg.bankBytesPerCycle = 64;
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    RefPollL2 ref(cfg);

    Cycle now = 0;
    std::vector<L2Event> got_events, want_events;
    std::vector<L2Response> got_resp, want_resp;
    l2.setAccessListener([&](StreamId s, Addr line, bool hit, uint32_t pos) {
        got_events.push_back({now, s, line, hit, pos});
    });
    ref.onAccess = [&](StreamId s, Addr line, bool hit, uint32_t pos) {
        want_events.push_back({now, s, line, hit, pos});
    };
    l2.setResponseHandler([&](const MemRequest &r) {
        got_resp.push_back({now, r.line, r.smId, r.completionKey});
    });
    ref.onResponse = [&](const MemRequest &r) {
        want_resp.push_back({now, r.line, r.smId, r.completionKey});
    };

    Rng rng(0xba4c ^ banks);
    uint64_t jumps = 0;
    for (int cycle = 0; cycle < 20000; ++cycle) {
        ++now;
        // Bursts of traffic between quiet stretches.
        const uint64_t offered =
            (cycle / 64) % 4 == 3 ? 0 : rng.nextBelow(6);
        for (uint64_t i = 0; i < offered; ++i) {
            MemRequest req;
            req.line = (rng.nextBelow(96) + 1) * kLineBytes * 3;
            req.write = rng.nextBelow(5) == 0;
            req.stream = static_cast<StreamId>(rng.nextBelow(2));
            req.smId = static_cast<uint32_t>(rng.nextBelow(4));
            req.completionKey =
                req.write ? MemRequest::kNoCompletion : rng.nextBelow(1000);
            ASSERT_EQ(l2.submit(req, now), ref.submit(req, now));
        }
        l2.step(now);
        ref.step(now);
        std::string detail;
        ASSERT_TRUE(l2.auditWorkSets(&detail)) << now << ": " << detail;
        ASSERT_EQ(l2.nextEventCycle(now), ref.nextEventCycle(now)) << now;
        // Quiet stretches: jump to the reference's next event, the way
        // idle fast-forward does.
        if (rng.nextBelow(8) == 0) {
            const Cycle wake = ref.nextEventCycle(now);
            if (wake != kNeverCycle && wake > now + 1) {
                now = wake - 1;
                ++jumps;
            }
        }
    }
    while (!ref.idle()) {
        ++now;
        l2.step(now);
        ref.step(now);
    }
    EXPECT_TRUE(l2.idle());
    EXPECT_EQ(got_events, want_events);
    EXPECT_EQ(got_resp, want_resp);
    EXPECT_EQ(l2.dramRequests(), ref.dramRequests());

    // The sequence exercised what it is meant to.
    EXPECT_GT(ref.stalls, 100u);
    EXPECT_GT(jumps, 100u);
    size_t same_cycle = 0;
    for (size_t i = 1; i < want_events.size(); ++i) {
        same_cycle += want_events[i].at == want_events[i - 1].at;
    }
    EXPECT_GT(same_cycle, 100u);
}

INSTANTIATE_TEST_SUITE_P(Banks, BankWakeSweep, ::testing::Values(2u, 3u, 4u));

/** Slot a line hashes to in an Mshr's table of @p table_size slots (the
 *  Mshr's own Fibonacci hash), so a test can build probe clusters. */
uint32_t
mshrHomeSlot(Addr line, uint32_t table_size)
{
    return static_cast<uint32_t>((line * 0x9E3779B97F4A7C15ull) >> 32) &
        (table_size - 1);
}

TEST(MshrEquivalence, BackwardShiftInsideAWrappedClusterMatchesReference)
{
    // Mshr(8, 2) has a 16-slot table. Three lines homed on the last
    // slot and two on slot 0 form one cluster that wraps from slot 15
    // to slot 3; deleting from its middle must shift the wrapped tail
    // back without losing any line.
    constexpr uint32_t kTable = 16;
    std::vector<Addr> last, first;
    for (Addr line = kLineBytes; last.size() < 3 || first.size() < 2;
         line += kLineBytes) {
        const uint32_t home = mshrHomeSlot(line, kTable);
        if (home == kTable - 1 && last.size() < 3) {
            last.push_back(line);
        } else if (home == 0 && first.size() < 2) {
            first.push_back(line);
        }
    }
    const std::vector<Addr> lines = {last[0], last[1], first[0], last[2],
                                     first[1]};
    for (Addr victim_first : lines) {
        Mshr mshr(8, 2);
        RefMshr ref(8, 2);
        Cycle now = 0;
        for (Addr line : lines) {
            ++now;
            ASSERT_EQ(mshr.allocate(line, line + 1, now),
                      ref.allocate(line, line + 1, now));
            // Fill the target list: the third key stalls.
            ASSERT_EQ(mshr.allocate(line, line + 2, now),
                      ref.allocate(line, line + 2, now));
            ASSERT_EQ(mshr.allocate(line, line + 3, now),
                      Mshr::Outcome::Stall);
            ref.allocate(line, line + 3, now);
        }
        // Delete each line in turn, starting at a different cluster
        // position every round; every survivor stays found.
        std::vector<Addr> order = {victim_first};
        for (Addr line : lines) {
            if (line != victim_first) {
                order.push_back(line);
            }
        }
        for (size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(keysOf(mshr.fill(order[i])), ref.fill(order[i]));
            for (Addr line : lines) {
                EXPECT_EQ(mshr.lookup(line).pending, ref.pending(line));
                EXPECT_EQ(mshr.keysFor(line), ref.keysFor(line));
            }
            EXPECT_EQ(mshr.oldestAllocation(), ref.oldestAllocation());
        }
        EXPECT_EQ(mshr.entriesInUse(), 0u);
    }
}

TEST(MshrEquivalence, FullTableAndFullTargetListsMatchReference)
{
    Mshr mshr(4, 3);
    RefMshr ref(4, 3);
    Cycle now = 0;
    for (uint64_t round = 0; round < 200; ++round) {
        // Fill the table and every target list, then one more line and
        // one more target, both refused.
        for (Addr i = 0; i < 5; ++i) {
            const Addr line = (round * 8 + i) * kLineBytes;
            for (uint64_t k = 0; k < 4; ++k) {
                ++now;
                const uint64_t key = k == 2 ? Mshr::kVoidKey : round + k;
                ASSERT_EQ(mshr.allocate(line, key, now),
                          ref.allocate(line, key, now));
                ASSERT_EQ(mshr.responseTargets(), ref.responseTargets());
            }
        }
        ASSERT_TRUE(mshr.full());
        const auto ea = mshr.entries();
        const auto eb = ref.entries();
        ASSERT_EQ(ea.size(), eb.size());
        for (size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].line, eb[i].line);
            EXPECT_EQ(ea[i].targets, eb[i].targets);
            EXPECT_EQ(ea[i].keys, eb[i].keys);
        }
        for (const auto &e : eb) {
            EXPECT_EQ(keysOf(mshr.fill(e.line)), ref.fill(e.line));
        }
    }
    EXPECT_EQ(mshr.primaryAllocations(), ref.primaryAllocations());
    EXPECT_EQ(mshr.mergedAllocations(), ref.mergedAllocations());
    EXPECT_EQ(mshr.fillsServed(), ref.fillsServed());
}

/** A ring entry that owns heap memory, so moves are exercised. */
struct RingItem
{
    uint64_t id = 0;
    std::vector<uint64_t> payload;
    bool operator==(const RingItem &) const = default;
};

void
expectSameQueue(const Ring<RingItem> &ring, const std::deque<RingItem> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    size_t i = 0;
    for (const RingItem &item : ring) {
        ASSERT_EQ(item, ref[i]);
        ASSERT_EQ(ring[i], ref[i]);
        ++i;
    }
    ASSERT_EQ(i, ref.size());
    if (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
    }
}

TEST(RingEquivalence, RandomPushPopInsertMatchesDeque)
{
    Ring<RingItem> ring;
    std::deque<RingItem> ref;
    Rng rng(0x7196);
    uint64_t next_id = 0;
    auto make = [&] {
        RingItem item;
        item.id = ++next_id;
        item.payload.assign(rng.nextBelow(4), next_id);
        return item;
    };
    for (int op = 0; op < 20000; ++op) {
        // Phases of net growth and net drain: the ring wraps, grows
        // while wrapped, and drains empty again.
        const bool grow_phase = (op / 2000) % 2 == 0;
        const uint64_t r = rng.nextBelow(10);
        if (r < (grow_phase ? 4u : 2u)) {
            RingItem item = make();
            ref.push_back(item);
            ring.push_back(std::move(item));
        } else if (r < 6) {
            if (!ref.empty()) {
                ref.pop_front();
                ring.pop_front();
            }
        } else if (r < 8) {
            // Insert at the head, the tail or in the middle.
            const size_t pos = rng.nextBelow(3) == 0
                ? 0
                : rng.nextBelow(ref.size() + 1);
            RingItem item = make();
            ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(pos), item);
            ring.insert(pos, std::move(item));
        } else if (!ref.empty()) {
            // Mutate in place through the index and the front.
            const size_t pos = rng.nextBelow(ref.size());
            ref[pos].payload.push_back(op);
            ring[pos].payload.push_back(op);
            ref.front().id += 1;
            ring.front().id += 1;
        }
        if (op % 16 == 0) {
            expectSameQueue(ring, ref);
            if (HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(RingEquivalence, GrowthWhileWrappedKeepsOrder)
{
    // Wrap the head to the middle of a full 16-slot ring, then push and
    // insert past the capacity: the growth must unroll the wrapped
    // entries in order.
    Ring<RingItem> ring;
    std::deque<RingItem> ref;
    for (uint64_t i = 0; i < 16; ++i) {
        ring.push_back({i, {}});
        ref.push_back({i, {}});
    }
    for (uint64_t i = 0; i < 11; ++i) {
        ring.pop_front();
        ref.pop_front();
        ring.push_back({100 + i, {i}});
        ref.push_back({100 + i, {i}});
    }
    expectSameQueue(ring, ref);
    ring.insert(3, {500, {5}});
    ref.insert(ref.begin() + 3, {500, {5}});
    expectSameQueue(ring, ref);
    for (uint64_t i = 0; i < 40; ++i) {
        ring.insert(0, {600 + i, {}});
        ref.push_front({600 + i, {}});
        ring.push_back({700 + i, {}});
        ref.push_back({700 + i, {}});
    }
    expectSameQueue(ring, ref);
}

TEST(RingEquivalence, FabricLinkStagesMatchDeque)
{
    // The inter-GPU fabric's link, three FIFOs in a chain: admitted
    // requests wait in a bounded queue, move onto the wire stamped with a
    // due cycle, land when due and leave only when the destination
    // accepts the head. Every stage moves entries front to back, as
    // InterGpuFabric does, on rings and on std::deques side by side.
    Ring<RingItem> queue, landed;
    Ring<std::pair<RingItem, Cycle>> wire;
    std::deque<RingItem> ref_queue, ref_landed;
    std::deque<std::pair<RingItem, Cycle>> ref_wire;
    std::vector<RingItem> got, want;
    Rng rng(0xfab);
    uint64_t next_id = 0;
    for (Cycle now = 1; now <= 20000; ++now) {
        // Bursty admission into a 6-entry queue; refused when full.
        const uint64_t offers = (now / 700) % 2 == 0 ? rng.nextBelow(3) : 0;
        for (uint64_t k = 0; k < offers && ref_queue.size() < 6; ++k) {
            RingItem item{++next_id, {}};
            item.payload.assign(rng.nextBelow(3), next_id);
            ref_queue.push_back(item);
            queue.push_back(std::move(item));
        }
        // Land every due packet (due cycles never decrease).
        while (!ref_wire.empty() && ref_wire.front().second <= now) {
            ref_landed.push_back(std::move(ref_wire.front().first));
            ref_wire.pop_front();
            ASSERT_FALSE(wire.empty());
            landed.push_back(std::move(wire.front().first));
            wire.pop_front();
        }
        // The destination takes landed heads until it refuses one.
        while (!ref_landed.empty() && rng.nextBelow(4) != 0) {
            want.push_back(std::move(ref_landed.front()));
            ref_landed.pop_front();
            ASSERT_FALSE(landed.empty());
            got.push_back(std::move(landed.front()));
            landed.pop_front();
        }
        // Pump at most one packet onto the wire per cycle.
        if (!ref_queue.empty() && rng.nextBelow(2) == 0) {
            const Cycle due = now + 20 + rng.nextBelow(2);
            const Cycle at = ref_wire.empty()
                ? due
                : std::max(due, ref_wire.back().second);
            ref_wire.emplace_back(std::move(ref_queue.front()), at);
            ref_queue.pop_front();
            wire.push_back({std::move(queue.front()), at});
            queue.pop_front();
        }
        expectSameQueue(queue, ref_queue);
        expectSameQueue(landed, ref_landed);
        ASSERT_EQ(wire.size(), ref_wire.size());
        size_t i = 0;
        for (const auto &packet : wire) {
            ASSERT_EQ(packet, ref_wire[i++]);
        }
        if (HasFatalFailure()) {
            return;
        }
    }
    EXPECT_EQ(got, want);
    EXPECT_GT(want.size(), 1000u);
}

TEST(CacheSentinelTag, LineZeroAndInvalidatedWaysMatchTwoPassReference)
{
    // Tag 0 is a real line (address 0): a fresh or invalidated way must
    // not hit it. Lines k * numSets * lineBytes (k < 8192 / numSets)
    // all map to set 0, so one set fills, loses ways to an invalidation
    // and refills; the reference scans validity and tag separately and
    // picks its victim in two passes.
    const CacheGeometry geom{4 * 1024, 4, kLineBytes};
    SetAssocCache cache(geom);
    RefCache ref(geom);
    const Addr set_stride = static_cast<Addr>(geom.numSets()) * kLineBytes;
    EXPECT_FALSE(cache.probe(0, 0));
    Rng rng(0x5e7);
    for (int op = 0; op < 20000; ++op) {
        const Addr line = rng.nextBelow(7) * set_stride;
        const StreamId stream = static_cast<StreamId>(rng.nextBelow(3));
        switch (rng.nextBelow(10)) {
        case 0:
            // Holes in the set: the next victims are the first invalid
            // ways, whatever their old LRU order.
            cache.invalidateStream(stream);
            ref.invalidateStream(stream);
            break;
        case 1: {
            const auto a = cache.fill(line, false, stream, DataClass::Compute);
            const auto b = ref.fill(line, false, stream, DataClass::Compute);
            ASSERT_EQ(a.wasPresent, b.wasPresent);
            ASSERT_EQ(a.evicted, b.evicted);
            ASSERT_EQ(a.evictedLine, b.evictedLine);
            ASSERT_EQ(a.evictedDirty, b.evictedDirty);
            break;
        }
        case 2:
            ASSERT_EQ(cache.probe(line, stream), ref.probe(line, stream));
            break;
        default: {
            const bool write = rng.nextBelow(3) == 0;
            const auto a =
                cache.access(line, write, stream, DataClass::Compute);
            const auto b = ref.access(line, write, stream, DataClass::Compute);
            ASSERT_EQ(a.hit, b.hit) << op;
            ASSERT_EQ(a.hitLruPos, b.hitLruPos);
            ASSERT_EQ(a.evicted, b.evicted);
            ASSERT_EQ(a.evictedLine, b.evictedLine);
            ASSERT_EQ(a.evictedDirty, b.evictedDirty);
            break;
        }
        }
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_GT(cache.hits(), 0u);
}

TEST(CacheSentinelTag, VictimIsFirstInvalidElseFirstLeastRecent)
{
    // Fill a 4-way set, free ways 1 and 3, and check the refill takes
    // way 1 then way 3 (first invalid), then evicts in LRU order.
    const CacheGeometry geom{4 * 1024, 4, kLineBytes};
    const Addr stride = static_cast<Addr>(geom.numSets()) * kLineBytes;
    SetAssocCache cache(geom);
    RefCache ref(geom);
    const StreamId owner[4] = {0, 1, 0, 1};
    for (Addr i = 0; i < 4; ++i) {
        cache.access(i * stride, true, owner[i], DataClass::Compute);
        ref.access(i * stride, true, owner[i], DataClass::Compute);
    }
    cache.invalidateStream(1);
    ref.invalidateStream(1);
    for (Addr i = 4; i < 12; ++i) {
        const auto a = cache.access(i * stride, false, 0, DataClass::Compute);
        const auto b = ref.access(i * stride, false, 0, DataClass::Compute);
        EXPECT_EQ(a.evicted, b.evicted) << i;
        EXPECT_EQ(a.evictedLine, b.evictedLine) << i;
        EXPECT_EQ(a.evictedDirty, b.evictedDirty) << i;
    }
    // Two refills went into the holes; six evicted, the first two of
    // them the dirty lines 0 and 2*stride in LRU order.
    EXPECT_FALSE(cache.probe(0, 0));
    EXPECT_TRUE(cache.probe(11 * stride, 0));
}

} // namespace
} // namespace crisp
