#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/icnt.hpp"
#include "mem/l2_subsystem.hpp"
#include "mem/mshr.hpp"

namespace crisp
{
namespace
{

CacheGeometry
smallGeom()
{
    // 4 sets x 2 ways x 128 B = 1 KiB.
    return {1024, 2, kLineBytes};
}

TEST(Cache, HitAfterFill)
{
    SetAssocCache c(smallGeom());
    EXPECT_FALSE(c.access(0x0, false, 0, DataClass::Compute).hit);
    EXPECT_TRUE(c.access(0x0, false, 0, DataClass::Compute).hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, LruEviction)
{
    SetAssocCache c(smallGeom());
    // Three lines mapping to the same set in a 2-way cache: with the
    // xor-fold hash we find conflicting lines by probing.
    std::vector<Addr> conflict;
    for (Addr a = 0; conflict.size() < 3 && a < (1u << 22);
         a += kLineBytes) {
        c.invalidateAll();
        // Choose lines with the same mapped set by testing eviction.
        if (conflict.empty()) {
            conflict.push_back(a);
            continue;
        }
        c.access(conflict[0], false, 0, DataClass::Compute);
        c.access(a, false, 0, DataClass::Compute);
        // If both still resident they share capacity fine; we need same
        // set: fill both then check an access pattern. Simpler check:
        // same set iff, after filling 2-way with [0]+a, re-filling with a
        // third line evicts. Collect lines whose tag differs.
        conflict.push_back(a);
    }
    // Direct LRU order check within one set using found conflicts is
    // hash-dependent; instead verify the generic invariant: capacity never
    // exceeded and the oldest line is replaced first in a fully-mapped
    // scan.
    c.invalidateAll();
    uint64_t evictions = 0;
    for (int i = 0; i < 64; ++i) {
        const auto r =
            c.access(static_cast<Addr>(i) * kLineBytes, false, 0,
                     DataClass::Compute);
        if (r.evicted) {
            ++evictions;
        }
    }
    // 64 distinct lines into an 8-line cache: 56 evictions.
    EXPECT_EQ(evictions, 64u - 8u);
    EXPECT_EQ(c.composition().validLines, 8u);
}

TEST(Cache, LruPrefersLeastRecentlyUsed)
{
    // One-set cache (fully associative with 4 ways).
    SetAssocCache c({4 * kLineBytes, 4, kLineBytes});
    const Addr a = 0 * kLineBytes;
    const Addr b = 1 * kLineBytes;
    const Addr d = 2 * kLineBytes;
    const Addr e = 3 * kLineBytes;
    const Addr f = 4 * kLineBytes;
    c.access(a, false, 0, DataClass::Compute);
    c.access(b, false, 0, DataClass::Compute);
    c.access(d, false, 0, DataClass::Compute);
    c.access(e, false, 0, DataClass::Compute);
    // Touch a again so b is LRU.
    c.access(a, false, 0, DataClass::Compute);
    const auto r = c.access(f, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLine, b);
    EXPECT_TRUE(c.probe(a, 0));
    EXPECT_FALSE(c.probe(b, 0));
}

TEST(Cache, HitLruPositionReported)
{
    SetAssocCache c({4 * kLineBytes, 4, kLineBytes});
    c.access(0 * kLineBytes, false, 0, DataClass::Compute);
    c.access(1 * kLineBytes, false, 0, DataClass::Compute);
    // 0 was used before 1: hitting 0 now sees one more-recent line.
    auto r = c.access(0, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.hitLruPos, 1u);
    // Immediately re-hitting 0 reports MRU position.
    r = c.access(0, false, 0, DataClass::Compute);
    EXPECT_EQ(r.hitLruPos, 0u);
}

TEST(Cache, NoAllocateOnMissLeavesCacheUntouched)
{
    SetAssocCache c(smallGeom());
    const auto r = c.access(0x0, true, 0, DataClass::Compute,
                            /*allocate_on_miss=*/false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(c.probe(0x0, 0));
    EXPECT_EQ(c.composition().validLines, 0u);
}

TEST(Cache, WriteMarksDirtyAndEvictionReportsIt)
{
    SetAssocCache c({2 * kLineBytes, 2, kLineBytes});
    c.access(0 * kLineBytes, true, 0, DataClass::Compute);
    c.access(1 * kLineBytes, false, 0, DataClass::Compute);
    const auto r = c.access(2 * kLineBytes, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLine, 0u);
    EXPECT_TRUE(r.evictedDirty);
}

TEST(Cache, CompositionTracksDataClasses)
{
    SetAssocCache c(smallGeom());
    c.access(0 * kLineBytes, false, 0, DataClass::Texture);
    c.access(1 * kLineBytes, false, 0, DataClass::Texture);
    c.access(2 * kLineBytes, false, 1, DataClass::Compute);
    const auto comp = c.composition();
    EXPECT_EQ(comp.validLines, 3u);
    EXPECT_EQ(comp.byClass[static_cast<size_t>(DataClass::Texture)], 2u);
    EXPECT_EQ(comp.byClass[static_cast<size_t>(DataClass::Compute)], 1u);
    EXPECT_GT(comp.fraction(DataClass::Texture), 0.0);
}

TEST(Cache, InvalidateStreamRemovesOnlyThatStream)
{
    SetAssocCache c(smallGeom());
    c.access(0 * kLineBytes, false, 7, DataClass::Compute);
    c.access(1 * kLineBytes, false, 8, DataClass::Compute);
    c.invalidateStream(7);
    EXPECT_FALSE(c.probe(0 * kLineBytes, 7));
    EXPECT_TRUE(c.probe(1 * kLineBytes, 8));
}

TEST(Cache, SetWindowConfinesStream)
{
    // 8 sets x 2 ways.
    SetAssocCache c({16 * kLineBytes, 2, kLineBytes});
    // Confine stream 5 to a single set: at most 2 lines survive no matter
    // how many distinct lines it touches.
    c.setStreamSetWindow(5, 0, 1);
    for (int i = 0; i < 64; ++i) {
        c.access(static_cast<Addr>(i) * kLineBytes, false, 5,
                 DataClass::Compute);
    }
    EXPECT_EQ(c.composition().validLines, 2u);

    // Another stream without a window still uses the whole cache.
    for (int i = 0; i < 64; ++i) {
        c.access(static_cast<Addr>(i) * kLineBytes, false, 6,
                 DataClass::Compute);
    }
    EXPECT_GT(c.composition().validLines, 2u);
    c.clearSetWindows();
}

TEST(MshrTest, MergeAndFill)
{
    Mshr m(2, 2);
    EXPECT_EQ(m.allocate(0x100, 1), Mshr::Outcome::NewEntry);
    EXPECT_EQ(m.allocate(0x100, 2), Mshr::Outcome::Merged);
    EXPECT_EQ(m.allocate(0x100, 3), Mshr::Outcome::Stall);  // target cap
    EXPECT_TRUE(m.lookup(0x100).pending);
    const auto keys = m.fill(0x100);
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], 1u);
    EXPECT_EQ(keys[1], 2u);
    EXPECT_FALSE(m.lookup(0x100).pending);
}

TEST(MshrTest, EntryCapStalls)
{
    Mshr m(1, 4);
    EXPECT_EQ(m.allocate(0x100, 1), Mshr::Outcome::NewEntry);
    EXPECT_EQ(m.allocate(0x200, 2), Mshr::Outcome::Stall);
    EXPECT_TRUE(m.full());
    m.fill(0x100);
    EXPECT_EQ(m.allocate(0x200, 2), Mshr::Outcome::NewEntry);
}

TEST(MshrTest, FillUnknownLineReturnsEmpty)
{
    Mshr m(2, 2);
    EXPECT_TRUE(m.fill(0xdead00).empty());
}

TEST(Dram, BandwidthSerializes)
{
    DramChannel d(1.0, 10);  // 1 byte/cycle, latency 10
    const Cycle t0 = d.service(0, 128);
    const Cycle t1 = d.service(0, 128);
    EXPECT_EQ(t0, 128u + 10u);
    EXPECT_EQ(t1, 256u + 10u);
    EXPECT_DOUBLE_EQ(d.busyCycles(), 256.0);
    EXPECT_EQ(d.requests(), 2u);
}

TEST(Dram, IdleChannelStartsAtNow)
{
    DramChannel d(128.0, 100);
    const Cycle t = d.service(1000, 128);
    EXPECT_EQ(t, 1000u + 1u + 100u);
}

TEST(Icnt, TransferAddsLatencyAndOccupancy)
{
    IcntLink link(32.0, 5);
    const Cycle t0 = link.transfer(0, 64);   // 2 cycles occupancy
    const Cycle t1 = link.transfer(0, 64);
    EXPECT_EQ(t0, 2u + 5u);
    EXPECT_EQ(t1, 4u + 5u);
    EXPECT_EQ(link.packets(), 2u);
}

class L2Fixture : public ::testing::Test
{
  protected:
    L2Fixture()
    {
        cfg.numBanks = 2;
        cfg.bankGeometry = {4 * kLineBytes, 2, kLineBytes};
        cfg.l2Latency = 10;
        cfg.icntLatency = 2;
        cfg.icntBytesPerCycle = 1024;
        cfg.dramBytesPerCycle = 64;
        cfg.dramLatency = 50;
        l2 = std::make_unique<L2Subsystem>(cfg, &stats);
        l2->setResponseHandler([this](const MemRequest &r) {
            responses.push_back(r);
        });
    }

    /** Run the subsystem until idle or the cycle budget expires. */
    void
    runUntilIdle(Cycle &now, Cycle budget = 10000)
    {
        const Cycle end = now + budget;
        while (!l2->idle() && now < end) {
            ++now;
            l2->step(now);
        }
    }

    L2Config cfg;
    StatsRegistry stats;
    std::unique_ptr<L2Subsystem> l2;
    std::vector<MemRequest> responses;
};

TEST_F(L2Fixture, MissGoesToDramThenHits)
{
    MemRequest req;
    req.line = 0;
    req.stream = 0;
    req.smId = 0;
    req.completionKey = 42;
    ASSERT_TRUE(l2->submit(req, 0));
    Cycle now = 0;
    runUntilIdle(now);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].completionKey, 42u);
    EXPECT_EQ(stats.stream(0).l2Accesses, 1u);
    EXPECT_EQ(stats.stream(0).l2Hits, 0u);
    EXPECT_EQ(stats.stream(0).dramReads, 1u);
    const Cycle miss_latency = now;
    EXPECT_GT(miss_latency, cfg.dramLatency);

    // Second access to the same line: a hit, much faster.
    responses.clear();
    req.completionKey = 43;
    ASSERT_TRUE(l2->submit(req, now));
    const Cycle start = now;
    runUntilIdle(now);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(stats.stream(0).l2Hits, 1u);
    EXPECT_LT(now - start, miss_latency);
}

TEST_F(L2Fixture, SameLineMissesMergeInMshr)
{
    for (uint64_t k = 1; k <= 3; ++k) {
        MemRequest req;
        req.line = 0x1000;
        req.completionKey = k;
        ASSERT_TRUE(l2->submit(req, 0));
    }
    Cycle now = 0;
    runUntilIdle(now);
    EXPECT_EQ(responses.size(), 3u);
    // One DRAM fill serves all three requesters.
    EXPECT_EQ(stats.stream(0).dramReads, 1u);
}

TEST_F(L2Fixture, WritesAreFireAndForget)
{
    MemRequest req;
    req.line = 0x2000;
    req.write = true;
    ASSERT_TRUE(l2->submit(req, 0));
    Cycle now = 0;
    runUntilIdle(now);
    EXPECT_TRUE(responses.empty());
    EXPECT_TRUE(l2->idle());
}

TEST_F(L2Fixture, BankQueueBackpressure)
{
    // Saturate one bank's queue; eventually submit refuses.
    bool refused = false;
    for (int i = 0; i < 1000; ++i) {
        MemRequest req;
        req.line = static_cast<Addr>(i) * kLineBytes;
        req.completionKey = static_cast<uint64_t>(i);
        if (!l2->submit(req, 0)) {
            refused = true;
            break;
        }
    }
    EXPECT_TRUE(refused);
}

TEST_F(L2Fixture, BankMaskRestrictsBanks)
{
    l2->setStreamBankMask(3, 0x1);  // stream 3 -> bank 0 only
    // All requests of stream 3 land in bank 0's queue: capacity is the
    // bank queue depth.
    uint32_t accepted = 0;
    for (int i = 0; i < 1000; ++i) {
        MemRequest req;
        req.line = static_cast<Addr>(i) * kLineBytes;
        req.stream = 3;
        req.completionKey = static_cast<uint64_t>(i);
        if (!l2->submit(req, 0)) {
            break;
        }
        ++accepted;
    }
    EXPECT_EQ(accepted, cfg.bankQueueCapacity);
}

TEST_F(L2Fixture, CompositionAggregatesBanks)
{
    MemRequest req;
    req.line = 0;
    req.dataClass = DataClass::Texture;
    req.completionKey = 1;
    ASSERT_TRUE(l2->submit(req, 0));
    Cycle now = 0;
    runUntilIdle(now);
    const auto comp = l2->composition();
    EXPECT_EQ(comp.byClass[static_cast<size_t>(DataClass::Texture)], 1u);
    EXPECT_EQ(comp.totalLines, 2u * 4u);
}

TEST_F(L2Fixture, AccessListenerObservesHitsAndMisses)
{
    int observed = 0;
    bool saw_hit = false;
    l2->setAccessListener(
        [&](StreamId, Addr, bool hit, uint32_t) {
            ++observed;
            saw_hit |= hit;
        });
    MemRequest req;
    req.line = 0x3000;
    req.completionKey = 9;
    ASSERT_TRUE(l2->submit(req, 0));
    Cycle now = 0;
    runUntilIdle(now);
    req.completionKey = 10;
    ASSERT_TRUE(l2->submit(req, now));
    runUntilIdle(now);
    EXPECT_EQ(observed, 2);
    EXPECT_TRUE(saw_hit);
}

// --- fill() path: installs without perturbing demand counters -----------

TEST(CacheFill, FillDoesNotCountAccessOrHit)
{
    SetAssocCache c(smallGeom());
    c.access(0x0, false, 0, DataClass::Compute);   // miss installs the tag
    const auto f = c.fill(0x0, false, 0, DataClass::Compute);
    EXPECT_TRUE(f.wasPresent);
    EXPECT_FALSE(f.evicted);
    EXPECT_EQ(c.accesses(), 1u);   // the demand miss only
    EXPECT_EQ(c.hits(), 0u);       // a fill is never a hit
    EXPECT_EQ(c.fills(), 1u);
    EXPECT_TRUE(c.access(0x0, false, 0, DataClass::Compute).hit);
}

TEST(CacheFill, FillDoesNotRefreshLru)
{
    // One set, two ways: recency must belong to demand accesses, so a
    // fill of the older line must not save it from eviction.
    SetAssocCache c({2 * kLineBytes, 2, kLineBytes});
    c.access(0x0, false, 0, DataClass::Compute);
    c.access(0x1000, false, 0, DataClass::Compute);
    c.fill(0x0, false, 0, DataClass::Compute);        // no LRU update
    const auto r = c.access(0x2000, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLine, 0x0u);   // 0x0 still the LRU despite the fill
}

TEST(CacheFill, FillReinstallsAfterInterimEviction)
{
    // One set, two ways. Install A and dirty B, evict A with C, then
    // complete A's fill: the re-install must evict exactly one victim
    // (LRU = B) and report its dirty state for writeback accounting.
    SetAssocCache c({2 * kLineBytes, 2, kLineBytes});
    c.access(0x0, false, 0, DataClass::Compute);        // A
    c.access(0x1000, true, 0, DataClass::Compute);      // B, dirty
    const auto ev = c.access(0x2000, false, 0, DataClass::Compute);
    ASSERT_TRUE(ev.evicted);
    EXPECT_EQ(ev.evictedLine, 0x0u);                    // A interim-evicted
    EXPECT_FALSE(ev.evictedDirty);
    const auto f = c.fill(0x0, false, 0, DataClass::Compute);
    EXPECT_FALSE(f.wasPresent);
    ASSERT_TRUE(f.evicted);
    EXPECT_EQ(f.evictedLine, 0x1000u);                  // LRU, not C
    EXPECT_TRUE(f.evictedDirty);
    EXPECT_TRUE(c.probe(0x0, 0));
    EXPECT_TRUE(c.probe(0x2000, 0));
    EXPECT_EQ(c.accesses(), 3u);   // fills still uncounted
    EXPECT_EQ(c.hits(), 0u);
}

// --- Sectored-cache eviction coverage -----------------------------------

CacheGeometry
sectoredGeom()
{
    // 4 sets x 2 ways x 128 B lines of 32 B sectors. Low line addresses
    // map set = (addr/128) % 4, so 0x0 / 0x200 / 0x400 share set 0.
    return {1024, 2, kLineBytes, 32};
}

TEST(CacheSectored, SectorMissOnValidTagFetchesOnlyTheSector)
{
    SetAssocCache c(sectoredGeom());
    EXPECT_FALSE(c.access(0x0, false, 0, DataClass::Texture).hit);
    const auto r = c.access(0x20, false, 0, DataClass::Texture);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.sectorMiss);
    EXPECT_FALSE(r.evicted);   // sector fetch never displaces a line
    EXPECT_EQ(c.sectorMisses(), 1u);
    EXPECT_TRUE(c.access(0x20, false, 0, DataClass::Texture).hit);
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheSectored, EvictionReportsPartialValidSectors)
{
    SetAssocCache c(sectoredGeom());
    c.access(0x0, false, 0, DataClass::Texture);    // sector 0
    c.access(0x20, false, 0, DataClass::Texture);   // sector 1
    c.access(0x200, false, 0, DataClass::Texture);  // 2nd way of set 0
    const auto r = c.access(0x400, false, 0, DataClass::Texture);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evictedLine, 0x0u);
    // Writeback sizing for a partially filled line needs the bitmap:
    // only sectors 0 and 1 were ever fetched.
    EXPECT_EQ(r.evictedValidSectors, 0x3u);
    // The new line starts over with just its own sector.
    EXPECT_FALSE(c.access(0x420, false, 0, DataClass::Texture).hit);
    EXPECT_EQ(c.sectorMisses(), 1u + 1u);
}

TEST(CacheSectored, InvalidateStreamDiscardsSectorState)
{
    SetAssocCache c(sectoredGeom());
    c.access(0x0, false, /*stream=*/7, DataClass::Texture);
    c.access(0x20, false, 7, DataClass::Texture);
    c.invalidateStream(7);
    EXPECT_FALSE(c.probe(0x0, 7));
    // Re-access is a full line miss with fresh sector state, not a
    // sector miss against a stale bitmap.
    const auto r = c.access(0x20, false, 7, DataClass::Texture);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.sectorMiss);
    // Sector 0's old validity must not have survived the invalidate: the
    // re-installed line knows only sector 1.
    const auto r2 = c.access(0x0, false, 7, DataClass::Texture);
    EXPECT_FALSE(r2.hit);
    EXPECT_TRUE(r2.sectorMiss);
}

TEST(CacheSectored, FillValidatesSectorsWithoutCounting)
{
    SetAssocCache c(sectoredGeom());
    const auto f = c.fill(0x20, false, 0, DataClass::Texture);
    EXPECT_FALSE(f.wasPresent);   // install-at-fill (the L1 path)
    EXPECT_EQ(c.accesses(), 0u);
    // Tag now present but only sector 1 valid: sector 0 is a sector miss.
    const auto r = c.access(0x0, false, 0, DataClass::Texture);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.sectorMiss);
    // A fill on a resident line ORs its sector in.
    EXPECT_TRUE(c.fill(0x40, false, 0, DataClass::Texture).wasPresent);
    EXPECT_TRUE(c.access(0x40, false, 0, DataClass::Texture).hit);
}

// --- MSHR allocation/fill pairing ---------------------------------------

TEST(MshrCounters, AllocationsBalanceFillsAndEntriesInUse)
{
    Mshr m(4, 4);
    EXPECT_EQ(m.allocate(0x0, 1, 0), Mshr::Outcome::NewEntry);
    EXPECT_EQ(m.allocate(0x80, 2, 1), Mshr::Outcome::NewEntry);
    EXPECT_EQ(m.allocate(0x0, 3, 2), Mshr::Outcome::Merged);
    EXPECT_EQ(m.primaryAllocations(), 2u);
    EXPECT_EQ(m.mergedAllocations(), 1u);
    EXPECT_EQ(m.fillsServed(), 0u);
    m.fill(0x0);
    EXPECT_EQ(m.fillsServed(), 1u);
    EXPECT_EQ(m.primaryAllocations(), m.fillsServed() + m.entriesInUse());
    m.fill(0x80);
    EXPECT_EQ(m.primaryAllocations(), m.fillsServed() + m.entriesInUse());
}

// --- The fill-time double-count regression (tentpole) -------------------

TEST_F(L2Fixture, PureMissStreamReadsZeroBankHitRate)
{
    // 16 distinct lines, never re-accessed: a pure-miss stream. The old
    // fill path re-ran access() on the miss-time tag, so every DRAM fill
    // counted a phantom access+hit and the *bank* counters read ~50% hit
    // rate while the stream counters correctly read 0%.
    Cycle now = 0;
    for (uint64_t i = 0; i < 16; ++i) {
        MemRequest req;
        req.line = i * 0x1000;
        req.stream = 0;
        req.smId = 0;
        req.completionKey = i + 1;
        ASSERT_TRUE(l2->submit(req, now));
        runUntilIdle(now);
    }
    EXPECT_EQ(responses.size(), 16u);
    EXPECT_EQ(stats.stream(0).l2Accesses, 16u);
    EXPECT_EQ(stats.stream(0).l2Hits, 0u);
    EXPECT_EQ(stats.stream(0).dramReads, 16u);
    EXPECT_EQ(l2->accesses(), 16u);
    EXPECT_EQ(l2->hits(), 0u);
    EXPECT_DOUBLE_EQ(l2->hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(l2->hitRate(), stats.stream(0).l2HitRate());
    EXPECT_EQ(l2->fillsCompleted(), 16u);
}

TEST_F(L2Fixture, HitRateMatchesStreamStatsWithMerges)
{
    // Three concurrent requests for one line: a primary miss plus two
    // MSHR merges (which never probe the tag array), then a real hit.
    Cycle now = 0;
    for (uint64_t k = 1; k <= 3; ++k) {
        MemRequest req;
        req.line = 0x5000;
        req.stream = 0;
        req.smId = 0;
        req.completionKey = k;
        ASSERT_TRUE(l2->submit(req, now));
    }
    runUntilIdle(now);
    MemRequest req;
    req.line = 0x5000;
    req.stream = 0;
    req.smId = 0;
    req.completionKey = 4;
    ASSERT_TRUE(l2->submit(req, now));
    runUntilIdle(now);

    EXPECT_EQ(stats.stream(0).l2Accesses, 4u);
    EXPECT_EQ(stats.stream(0).l2MshrMerges, 2u);
    EXPECT_EQ(stats.stream(0).l2Hits, 1u);
    EXPECT_EQ(l2->mergedAccesses(), 2u);
    EXPECT_EQ(l2->accesses(), stats.stream(0).l2Accesses);
    EXPECT_EQ(l2->hits(), stats.stream(0).l2Hits);
    EXPECT_DOUBLE_EQ(l2->hitRate(), stats.stream(0).l2HitRate());
}

TEST(L2InterimEviction, DirtyVictimChargedOnceAtFill)
{
    // Directed eviction sequence through a 1-bank, 1-set, 2-way L2:
    //   write X        -> X resident dirty after its fill
    //   read A         -> miss installs A's tag, fill in flight
    //   read X         -> hit, X becomes MRU
    //   read B         -> miss evicts clean A (the interim eviction)
    //   A's fill       -> re-installs A, evicting dirty X: exactly one
    //                     writeback, charged to the filling stream
    // The old path could evict a second dirty victim here and charge
    // dramWrites against the original request cycle.
    L2Config cfg;
    cfg.numBanks = 1;
    cfg.bankGeometry = {2 * kLineBytes, 2, kLineBytes};
    cfg.l2Latency = 10;
    cfg.icntLatency = 2;
    cfg.icntBytesPerCycle = 1024;
    cfg.dramBytesPerCycle = 64;
    cfg.dramLatency = 50;
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    std::vector<MemRequest> responses;
    l2.setResponseHandler(
        [&](const MemRequest &r) { responses.push_back(r); });

    Cycle now = 0;
    auto stepFor = [&](Cycle cycles) {
        const Cycle end = now + cycles;
        while (now < end) {
            l2.step(++now);
        }
    };
    auto drain = [&] {
        const Cycle end = now + 10000;
        while (!l2.idle() && now < end) {
            l2.step(++now);
        }
    };

    MemRequest wx;
    wx.line = 0x2000;
    wx.write = true;
    wx.stream = 0;
    wx.smId = 0;
    ASSERT_TRUE(l2.submit(wx, now));
    drain();
    ASSERT_EQ(stats.stream(0).dramReads, 1u);   // fetch on write-allocate
    ASSERT_EQ(stats.stream(0).dramWrites, 0u);

    MemRequest ra;
    ra.line = 0x0;
    ra.stream = 0;
    ra.smId = 0;
    ra.completionKey = 1;
    ASSERT_TRUE(l2.submit(ra, now));
    stepFor(10);   // A's tag installed, fill still in flight
    ASSERT_EQ(stats.stream(0).dramReads, 2u);

    MemRequest rx = ra;
    rx.line = 0x2000;
    rx.completionKey = 2;
    ASSERT_TRUE(l2.submit(rx, now));
    stepFor(10);   // X hit: X is now MRU, A is LRU
    ASSERT_EQ(stats.stream(0).l2Hits, 1u);

    MemRequest rb = ra;
    rb.line = 0x1000;
    rb.completionKey = 3;
    ASSERT_TRUE(l2.submit(rb, now));
    stepFor(10);   // B's miss evicts clean A between A's miss and fill
    ASSERT_EQ(stats.stream(0).dramReads, 3u);
    ASSERT_EQ(stats.stream(0).dramWrites, 0u);   // A was clean

    drain();
    EXPECT_EQ(responses.size(), 3u);
    // A's fill re-installed A and evicted dirty X: one writeback, once.
    EXPECT_EQ(stats.stream(0).dramWrites, 1u);
    EXPECT_EQ(l2.fillsCompleted(), 3u);
    EXPECT_EQ(l2.accesses(), 4u);
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_DOUBLE_EQ(l2.hitRate(), stats.stream(0).l2HitRate());
    EXPECT_TRUE(l2.idle());
}

} // namespace
} // namespace crisp
