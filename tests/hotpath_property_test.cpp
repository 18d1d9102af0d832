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
// work-set walk (WorkSet) against a full scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "common/work_set.hpp"
#include "gpu/gpu.hpp"
#include "mem/cache.hpp"
#include "mem/due_queue.hpp"
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
                const std::vector<uint64_t> got = mshr.fill(victim);
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
            EXPECT_EQ(mshr.pending(line), ref.pending(line));
            EXPECT_EQ(mshr.wouldStall(line), ref.wouldStall(line));
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
            EXPECT_EQ(mshr.fill(victim), ref.fill(victim));
        }
        EXPECT_EQ(mshr.entriesInUse(), ref.entriesInUse());
        EXPECT_EQ(mshr.oldestAllocation(), ref.oldestAllocation());
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

} // namespace
} // namespace crisp
