#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mem/cache.hpp"
#include "mem/l2_subsystem.hpp"
#include "mem/mshr.hpp"

namespace crisp
{
namespace
{

// ---------------------------------------------------------------------
// Cache geometry properties, swept over associativities and sizes.
// ---------------------------------------------------------------------

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(CacheGeometrySweep, CapacityNeverExceeded)
{
    const auto [ways, sets] = GetParam();
    SetAssocCache cache({static_cast<uint64_t>(ways) * sets * kLineBytes,
                         ways, kLineBytes});
    const uint32_t capacity = ways * sets;
    for (uint32_t i = 0; i < capacity * 4; ++i) {
        cache.access(static_cast<Addr>(i) * kLineBytes, false, 0,
                     DataClass::Compute);
        EXPECT_LE(cache.composition().validLines, capacity);
    }
    EXPECT_EQ(cache.composition().validLines, capacity);
}

TEST_P(CacheGeometrySweep, HitAfterFillForEveryLine)
{
    const auto [ways, sets] = GetParam();
    SetAssocCache cache({static_cast<uint64_t>(ways) * sets * kLineBytes,
                         ways, kLineBytes});
    // Working set == capacity: after one pass, everything must hit,
    // whatever the set hash (each line maps to exactly one set, and no
    // set can be over-subscribed when the count equals capacity only if
    // the hash balances; use a small multiple below capacity instead).
    const uint32_t lines = std::max(1u, ways * sets / 4);
    for (uint32_t i = 0; i < lines; ++i) {
        cache.access(static_cast<Addr>(i) * kLineBytes, false, 0,
                     DataClass::Compute);
    }
    uint32_t hits = 0;
    for (uint32_t i = 0; i < lines; ++i) {
        hits += cache
                    .access(static_cast<Addr>(i) * kLineBytes, false, 0,
                            DataClass::Compute)
                    .hit;
    }
    // A quarter-capacity working set should mostly survive; allow a few
    // unlucky set conflicts under the xor-fold hash.
    EXPECT_GE(hits, lines * 3 / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::make_tuple(1u, 16u), std::make_tuple(2u, 8u),
                      std::make_tuple(4u, 16u), std::make_tuple(8u, 32u),
                      std::make_tuple(16u, 128u)));

// ---------------------------------------------------------------------
// Set-window partitioning property over window sizes.
// ---------------------------------------------------------------------

class SetWindowSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(SetWindowSweep, ResidencyBoundedByWindow)
{
    const uint32_t window = GetParam();
    const uint32_t ways = 4;
    const uint32_t sets = 32;
    SetAssocCache cache({static_cast<uint64_t>(ways) * sets * kLineBytes,
                         ways, kLineBytes});
    cache.setStreamSetWindow(9, 0, window);
    for (uint32_t i = 0; i < 4 * ways * sets; ++i) {
        cache.access(static_cast<Addr>(i) * kLineBytes, false, 9,
                     DataClass::Texture);
    }
    EXPECT_LE(cache.composition().validLines, window * ways);
    if (window > 0) {
        EXPECT_GE(cache.composition().validLines, (window * ways) / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, SetWindowSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 31u));

// ---------------------------------------------------------------------
// MSHR: every allocated key comes back exactly once.
// ---------------------------------------------------------------------

TEST(MshrProperty, KeysConservedUnderRandomFills)
{
    Rng rng(99);
    Mshr mshr(16, 4);
    std::vector<Addr> lines;
    std::vector<uint64_t> expected;
    uint64_t key = 1;
    for (int round = 0; round < 50; ++round) {
        const Addr line = rng.nextBelow(24) * kLineBytes;
        const auto outcome = mshr.allocate(line, key);
        if (outcome != Mshr::Outcome::Stall) {
            expected.push_back(key);
            if (outcome == Mshr::Outcome::NewEntry) {
                lines.push_back(line);
            }
            ++key;
        }
        // Randomly fill one outstanding line.
        if (!lines.empty() && rng.nextDouble() < 0.4) {
            const size_t pick = rng.nextBelow(lines.size());
            const Addr fill = lines[pick];
            lines.erase(lines.begin() + pick);
            for (uint64_t k : mshr.fill(fill)) {
                auto it =
                    std::find(expected.begin(), expected.end(), k);
                ASSERT_NE(it, expected.end())
                    << "key returned twice or never allocated";
                expected.erase(it);
            }
        }
    }
    for (Addr line : lines) {
        for (uint64_t k : mshr.fill(line)) {
            auto it = std::find(expected.begin(), expected.end(), k);
            ASSERT_NE(it, expected.end());
            expected.erase(it);
        }
    }
    EXPECT_TRUE(expected.empty()) << "keys lost in the MSHR";
}

// ---------------------------------------------------------------------
// DRAM bandwidth accounting property.
// ---------------------------------------------------------------------

class DramBandwidthSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DramBandwidthSweep, BusyCyclesMatchBytesOverBandwidth)
{
    const double bpc = GetParam();
    DramChannel dram(bpc, 100);
    const uint32_t requests = 64;
    Cycle last = 0;
    for (uint32_t i = 0; i < requests; ++i) {
        last = dram.service(0, kLineBytes);
    }
    const double expected_busy = requests * kLineBytes / bpc;
    EXPECT_NEAR(dram.busyCycles(), expected_busy, 1.0);
    // Completion of the last request: full serialization + latency.
    EXPECT_NEAR(static_cast<double>(last), expected_busy + 100.0, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, DramBandwidthSweep,
                         ::testing::Values(8.0, 32.0, 153.8, 395.8));

// ---------------------------------------------------------------------
// Regression: cross-SM MSHR merging must route responses to each SM.
// (Found during bring-up: merged secondary misses from another SM were
// answered to the primary SM, deadlocking the second one.)
// ---------------------------------------------------------------------

TEST(L2Regression, CrossSmMergedMissesRouteToBothSms)
{
    L2Config cfg;
    cfg.numBanks = 1;
    cfg.bankGeometry = {4 * kLineBytes, 2, kLineBytes};
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    std::vector<std::pair<uint32_t, uint64_t>> responses;
    l2.setResponseHandler([&](const MemRequest &r) {
        responses.emplace_back(r.smId, r.completionKey);
    });

    MemRequest a;
    a.line = 0x700;  // unaligned to expose alignment bugs
    a.line = 0x700 / kLineBytes * kLineBytes;
    a.smId = 3;
    a.completionKey = 111;
    MemRequest b = a;
    b.smId = 7;
    b.completionKey = 222;
    ASSERT_TRUE(l2.submit(a, 0));
    ASSERT_TRUE(l2.submit(b, 0));
    Cycle now = 0;
    while (!l2.idle() && now < 10000) {
        ++now;
        l2.step(now);
    }
    ASSERT_EQ(responses.size(), 2u);
    std::sort(responses.begin(), responses.end());
    EXPECT_EQ(responses[0], std::make_pair(3u, uint64_t{111}));
    EXPECT_EQ(responses[1], std::make_pair(7u, uint64_t{222}));
    // Only one DRAM fill was needed despite two requesters.
    EXPECT_EQ(l2.dramRequests(), 1u);
}

// ---------------------------------------------------------------------
// L2 bank bandwidth: a single bank serves at bankBytesPerCycle.
// ---------------------------------------------------------------------

TEST(L2Property, BankBandwidthThrottlesServiceRate)
{
    L2Config cfg;
    cfg.numBanks = 1;
    cfg.bankGeometry = {64 * kLineBytes, 4, kLineBytes};
    cfg.bankBytesPerCycle = 32.0;  // 4 cycles per line
    cfg.bankQueueCapacity = 64;
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    uint32_t responses = 0;
    l2.setResponseHandler([&](const MemRequest &) { ++responses; });

    // Warm 16 lines so they hit, then stream them again and measure the
    // drain rate.
    auto drain = [&](Cycle &now) {
        while (!l2.idle() && now < 100000) {
            ++now;
            l2.step(now);
        }
    };
    Cycle now = 0;
    for (Addr i = 0; i < 16; ++i) {
        MemRequest req;
        req.line = i * kLineBytes;
        req.completionKey = i;
        ASSERT_TRUE(l2.submit(req, now));
    }
    drain(now);
    responses = 0;
    const Cycle start = now;
    for (Addr i = 0; i < 16; ++i) {
        MemRequest req;
        req.line = i * kLineBytes;
        req.completionKey = i;
        ASSERT_TRUE(l2.submit(req, now));
    }
    drain(now);
    EXPECT_EQ(responses, 16u);
    // 16 hits at 4 cycles/line each: at least 64 cycles of bank service.
    EXPECT_GE(now - start, 16u * 4u);
}

// ---------------------------------------------------------------------
// Fault-hook delays through the L2's due queues. The fill and response
// queues are FIFOs whose Delay re-inserts land after equal due cycles,
// as the std::multimap they replaced did. The reference is derived from
// an undelayed run: with distinct, cold, read-only lines and MSHRs that
// never fill, nothing upstream of a fill depends on its timing, so a
// fixed delay on every fill shifts the response stream by that delay.
// Every queue pops in (due cycle, first pop before re-insert, original
// order) order.
// ---------------------------------------------------------------------

/** Records every pop it sees; delays each fill once by fillDelay and
 *  each response of a line with line/kLineBytes % 3 == 0 once by
 *  responseDelay (0 = pass). */
class RecordingDelayHook : public MemFaultHook
{
  public:
    Cycle fillDelay = 0;
    Cycle responseDelay = 0;
    std::vector<std::pair<Cycle, Addr>> fills;
    std::vector<std::pair<Cycle, Addr>> responses;

    static bool
    delaysResponse(Addr line)
    {
        return line / kLineBytes % 3 == 0;
    }

    Action
    onDramFill(const MemRequest &req, Cycle now, Cycle &delay) override
    {
        fills.emplace_back(now, req.line);
        if (fillDelay != 0 && filled_.insert(req.line).second) {
            delay = fillDelay;
            return Action::Delay;
        }
        return Action::None;
    }

    Action
    onResponse(const MemRequest &req, Cycle now, Cycle &delay) override
    {
        responses.emplace_back(now, req.line);
        if (responseDelay != 0 && delaysResponse(req.line) &&
            responded_.insert(req.line).second) {
            delay = responseDelay;
            return Action::Delay;
        }
        return Action::None;
    }

  private:
    std::set<Addr> filled_;
    std::set<Addr> responded_;
};

struct DelayRun
{
    std::vector<std::pair<Cycle, Addr>> fills;      ///< Fill pops seen.
    std::vector<std::pair<Cycle, Addr>> responses;  ///< Response pops seen.
    std::vector<std::pair<Cycle, Addr>> delivered;
    std::string auditFailure;
};

DelayRun
runDelayed(Cycle fill_delay, Cycle response_delay)
{
    L2Config cfg;
    cfg.numBanks = 4;
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    RecordingDelayHook hook;
    hook.fillDelay = fill_delay;
    hook.responseDelay = response_delay;
    l2.setFaultHook(&hook);
    DelayRun run;
    Cycle now = 0;
    l2.setResponseHandler([&](const MemRequest &r) {
        run.delivered.emplace_back(now, r.line);
    });
    // 240 distinct lines, three offered per cycle in a fixed order; a
    // refused one is offered again next cycle. 60 lines per bank stay
    // under the 64 MSHR entries, so no bank ever waits on a fill.
    Addr next = 0;
    const Addr total = 240;
    while ((next < total || !l2.idle()) && now < 100000) {
        ++now;
        for (int i = 0; i < 3 && next < total; ++i) {
            MemRequest req;
            req.line = (next * 7 + 1) * kLineBytes;
            req.smId = static_cast<uint32_t>(next % 5);
            req.completionKey = req.line;
            if (!l2.submit(req, now)) {
                break;
            }
            ++next;
        }
        l2.step(now);
        std::string detail;
        if (!l2.auditWorkSets(&detail) && run.auditFailure.empty()) {
            run.auditFailure = std::to_string(now) + ": " + detail;
        }
    }
    EXPECT_TRUE(l2.idle());
    run.fills = std::move(hook.fills);
    run.responses = std::move(hook.responses);
    return run;
}

/** Pop order of a due queue: each item pops at its due cycle, and an
 *  item in @p delayed pops again @p delay later, after that cycle's
 *  first pops; ties keep @p base order. With @p only_final, the first
 *  pop of a delayed item is left out (the deliveries). */
std::vector<std::pair<Cycle, Addr>>
expectedPops(const std::vector<std::pair<Cycle, Addr>> &base, Cycle shift,
             Cycle delay, bool (*delayed)(Addr), bool only_final)
{
    std::vector<std::tuple<Cycle, int, size_t, Addr>> events;
    for (size_t i = 0; i < base.size(); ++i) {
        const auto [due, line] = base[i];
        const bool again = delay != 0 && delayed(line);
        if (!(only_final && again)) {
            events.emplace_back(due + shift, 0, i, line);
        }
        if (again) {
            events.emplace_back(due + shift + delay, 1, i, line);
        }
    }
    std::sort(events.begin(), events.end());
    std::vector<std::pair<Cycle, Addr>> out;
    for (const auto &[at, pass, i, line] : events) {
        out.emplace_back(at, line);
    }
    return out;
}

TEST(L2Property, DelayedFillsAndResponsesPopInMultimapOrder)
{
    const DelayRun plain = runDelayed(0, 0);
    ASSERT_EQ(plain.delivered.size(), 240u);
    EXPECT_EQ(plain.responses, plain.delivered);
    EXPECT_TRUE(plain.auditFailure.empty()) << plain.auditFailure;

    // Both delays stay below the latency a fresh entry is pushed ahead
    // of its due cycle (DRAM 180, response link 25), so every re-insert
    // lands behind entries already queued for the same cycle.
    const Cycle fill_delay = 7;
    const Cycle response_delay = 5;
    const DelayRun delayed = runDelayed(fill_delay, response_delay);
    EXPECT_TRUE(delayed.auditFailure.empty()) << delayed.auditFailure;
    auto every = [](Addr) { return true; };
    EXPECT_EQ(delayed.fills,
              expectedPops(plain.fills, 0, fill_delay, every, false));
    EXPECT_EQ(delayed.responses,
              expectedPops(plain.delivered, fill_delay, response_delay,
                           &RecordingDelayHook::delaysResponse, false));
    EXPECT_EQ(delayed.delivered,
              expectedPops(plain.delivered, fill_delay, response_delay,
                           &RecordingDelayHook::delaysResponse, true));
}

// ---------------------------------------------------------------------
// Composition fractions sum to one over valid lines.
// ---------------------------------------------------------------------

TEST(L2Property, CompositionFractionsSumToOne)
{
    L2Config cfg;
    cfg.numBanks = 2;
    cfg.bankGeometry = {16 * kLineBytes, 4, kLineBytes};
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    l2.setResponseHandler([](const MemRequest &) {});
    Cycle now = 0;
    Rng rng(5);
    const DataClass classes[3] = {DataClass::Texture, DataClass::Pipeline,
                                  DataClass::Compute};
    for (int i = 0; i < 200; ++i) {
        MemRequest req;
        req.line = rng.nextBelow(64) * kLineBytes;
        req.dataClass = classes[rng.nextBelow(3)];
        req.write = rng.nextDouble() < 0.3;
        req.completionKey = req.write ? MemRequest::kNoCompletion
                                      : static_cast<uint64_t>(i);
        if (l2.submit(req, now)) {
            for (int s = 0; s < 20; ++s) {
                ++now;
                l2.step(now);
            }
        }
    }
    while (!l2.idle() && now < 100000) {
        ++now;
        l2.step(now);
    }
    const auto comp = l2.composition();
    ASSERT_GT(comp.validLines, 0u);
    const double total = comp.fraction(DataClass::Texture) +
                         comp.fraction(DataClass::Pipeline) +
                         comp.fraction(DataClass::Compute) +
                         comp.fraction(DataClass::Unknown);
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_LE(comp.validFraction(), 1.0);
}


// ---------------------------------------------------------------------
// Sectored cache extension (Accel-Sim-style 32 B sectors in 128 B lines).
// ---------------------------------------------------------------------

TEST(SectoredCache, SectorMissFillsOnlyThatSector)
{
    CacheGeometry g{1024, 2, kLineBytes, kSectorBytes};
    SetAssocCache c(g);
    EXPECT_EQ(g.sectorsPerLine(), 4u);

    // First touch: full line miss installing one sector.
    auto r = c.access(0x0, false, 0, DataClass::Compute);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.sectorMiss);

    // Same sector again: a hit.
    r = c.access(0x0, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.hit);

    // Different sector of the same line: tag hit, sector miss, and no
    // eviction.
    r = c.access(0x0 + kSectorBytes, false, 0, DataClass::Compute);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.sectorMiss);
    EXPECT_FALSE(r.evicted);
    EXPECT_EQ(c.sectorMisses(), 1u);

    // Now that sector is valid too.
    r = c.access(0x0 + kSectorBytes, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.hit);
}

TEST(SectoredCache, EvictionInvalidatesAllSectors)
{
    // 1 set x 1 way, sectored: any new tag evicts and resets sectors.
    CacheGeometry g{kLineBytes, 1, kLineBytes, kSectorBytes};
    SetAssocCache c(g);
    c.access(0x0, false, 0, DataClass::Compute);
    c.access(0x0 + kSectorBytes, false, 0, DataClass::Compute);
    // Evict with a different line.
    auto r = c.access(4 * kLineBytes, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.evicted);
    // The old line returns as a full miss, and its sectors start over.
    r = c.access(0x0 + kSectorBytes, false, 0, DataClass::Compute);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.sectorMiss);  // whole line was gone
    r = c.access(0x0, false, 0, DataClass::Compute);
    EXPECT_TRUE(r.sectorMiss);   // other sector still cold
}

TEST(SectoredCache, UnsectoredGeometryUnchanged)
{
    CacheGeometry g{1024, 2, kLineBytes, 0};
    SetAssocCache c(g);
    EXPECT_EQ(g.sectorsPerLine(), 1u);
    c.access(0x0, false, 0, DataClass::Compute);
    // Whole line valid after one fill: any offset re-access at line
    // granularity hits.
    EXPECT_TRUE(c.access(0x0, false, 0, DataClass::Compute).hit);
    EXPECT_EQ(c.sectorMisses(), 0u);
}

TEST(SectoredCache, SectoredFetchesFewerBytesOnSparseAccess)
{
    // Strided sparse accesses: one 4 B word per line. A sectored cache
    // fetches 32 B per miss, an unsectored one 128 B.
    CacheGeometry sect{64 * kLineBytes, 8, kLineBytes, kSectorBytes};
    CacheGeometry full{64 * kLineBytes, 8, kLineBytes, 0};
    SetAssocCache a(sect);
    SetAssocCache b(full);
    uint64_t bytes_sect = 0;
    uint64_t bytes_full = 0;
    for (Addr i = 0; i < 32; ++i) {
        const Addr addr = i * kLineBytes;
        auto ra = a.access(addr, false, 0, DataClass::Compute);
        if (!ra.hit) {
            bytes_sect += ra.sectorMiss ? kSectorBytes : kSectorBytes;
        }
        auto rb = b.access(addr, false, 0, DataClass::Compute);
        if (!rb.hit) {
            bytes_full += kLineBytes;
        }
    }
    EXPECT_EQ(bytes_sect * 4, bytes_full);
}

} // namespace
} // namespace crisp
