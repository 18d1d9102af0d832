#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/wake_calendar.hpp"
#include "common/work_set.hpp"
#include "core/sm.hpp"
#include "isa/trace_builder.hpp"
#include "sm_step.hpp"

namespace crisp
{
namespace
{

/** Fabric stub with configurable latency (same as core_test). */
class DelayFabric : public MemFabricPort
{
  public:
    explicit DelayFabric(Cycle delay) : delay_(delay) {}

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        if (!req.write) {
            pending_.emplace(now + delay_, req);
        }
        return true;
    }

    void
    step(Sm &sm, Cycle now)
    {
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            // Delivered after the SM's step: usable from next cycle.
            sm.memResponse(node.mapped(), now + 1);
        }
    }

  private:
    Cycle delay_;
    std::multimap<Cycle, MemRequest> pending_;
};

KernelInfo
warpKernel(WarpTrace warp, StreamId stream = 0, uint32_t regs = 16)
{
    CtaTrace cta;
    cta.warps.push_back(std::move(warp));
    KernelInfo k;
    k.name = "prop";
    k.stream = stream;
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = regs;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

// ---------------------------------------------------------------------
// Instruction latency sweep: a two-instruction dependence chain takes at
// least the producing class's latency.
// ---------------------------------------------------------------------

struct LatencyCase
{
    Opcode op;
    const char *name;
};

class LatencySweep : public ::testing::TestWithParam<LatencyCase>
{
};

TEST_P(LatencySweep, DependenceChainPaysProducerLatency)
{
    const LatencyCase c = GetParam();
    SmConfig cfg;
    DelayFabric fabric(100);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));

    TraceBuilder tb(32);
    tb.alu(c.op, 5, 1, 2);
    tb.alu(Opcode::FFMA, 6, 5, 5);  // depends on the producer
    tb.exit();
    const auto k = warpKernel(tb.take());
    sm.launchCta(k, 1, 0, 0);
    Cycle now = 0;
    while (!sm.idle() && now < 10000) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }
    const Cycle expect = cfg.latencyFor(opcodeClass(c.op));
    EXPECT_GE(now, expect);
    EXPECT_LE(now, expect + cfg.fp32Latency + 8);
}

INSTANTIATE_TEST_SUITE_P(
    Classes, LatencySweep,
    ::testing::Values(LatencyCase{Opcode::FFMA, "fp32"},
                      LatencyCase{Opcode::IMAD, "int"},
                      LatencyCase{Opcode::MUFU_SIN, "sfu"},
                      LatencyCase{Opcode::HMMA, "tensor"}),
    [](const ::testing::TestParamInfo<LatencyCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Barrier sweep: all warp counts synchronize and drain.
// ---------------------------------------------------------------------

class BarrierSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BarrierSweep, AllWarpsDrain)
{
    const uint32_t warps = GetParam();
    SmConfig cfg;
    DelayFabric fabric(50);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));

    CtaTrace cta;
    for (uint32_t w = 0; w < warps; ++w) {
        TraceBuilder tb(32);
        // Stagger work before the barrier so arrival times differ.
        tb.aluChain(Opcode::FFMA, 5, 2, w + 1);
        tb.bar();
        tb.alu(Opcode::IADD, 6, 1);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    KernelInfo k;
    k.name = "bar";
    k.grid = {1, 1, 1};
    k.cta = {warps * 32, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    ASSERT_TRUE(sm.canAccept(k));
    sm.launchCta(k, 1, 0, 0);
    Cycle now = 0;
    while (!sm.idle() && now < 100000) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }
    EXPECT_TRUE(sm.idle()) << warps << " warps deadlocked at the barrier";
    EXPECT_EQ(stats.stream(0).instructions,
              static_cast<uint64_t>(warps) * (warps + 1) / 2 +
                  3ull * warps);
}

INSTANTIATE_TEST_SUITE_P(WarpCounts, BarrierSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------
// Regression: a lower-priority stream must not starve the priority
// stream's issue slots or head-of-line block its memory instructions.
// ---------------------------------------------------------------------

TEST(PriorityRegression, PriorityStreamProgressesUnderFlood)
{
    SmConfig cfg;
    DelayFabric fabric(200);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
    sm.setIssuePriority(/*stream=*/1, -1);

    // Stream 0 floods: many warps of back-to-back loads + ALU.
    KernelInfo flood;
    {
        CtaTrace cta;
        for (int w = 0; w < 24; ++w) {
            TraceBuilder tb(32);
            for (int i = 0; i < 30; ++i) {
                tb.memStrided(Opcode::LDG, 4,
                              0x100000 + 0x4000 * w + 0x100 * i,
                              kLineBytes, 4, DataClass::Compute);
                tb.alu(Opcode::IMAD, 5, 4, 4);
            }
            tb.exit();
            cta.warps.push_back(tb.take());
        }
        flood.name = "flood";
        flood.stream = 0;
        flood.grid = {1, 1, 1};
        flood.cta = {24 * 32, 1, 1};
        flood.regsPerThread = 16;
        flood.source = std::make_shared<VectorCtaSource>(
            std::vector<CtaTrace>{std::move(cta)});
    }
    sm.launchCta(flood, 1, 0, 0);

    // Let the flood occupy the LDST queue first.
    Cycle now = 0;
    for (int i = 0; i < 20; ++i) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }

    // Priority stream: one short warp with a load.
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x900000, 4, DataClass::Texture);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.exit();
    auto k = warpKernel(tb.take(), /*stream=*/1);
    ASSERT_TRUE(sm.canAccept(k));
    sm.launchCta(k, 2, 0, now);
    const Cycle launch = now;
    while (stats.stream(1).instructions < 3 && now - launch < 5000) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }
    // Without priority, the flood's LDST entries would delay this far
    // beyond a couple of memory round trips.
    EXPECT_LT(now - launch, 1500u);
    while (!sm.idle() && now < 200000) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }
}

// ---------------------------------------------------------------------
// Quota invariant under churn: per-stream thread usage never exceeds the
// quota while CTAs launch and retire.
// ---------------------------------------------------------------------

class QuotaSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(QuotaSweep, UsageNeverExceedsQuota)
{
    const uint32_t quota_threads = GetParam();
    SmConfig cfg;
    DelayFabric fabric(80);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
    SmQuota q;
    q.maxThreads = quota_threads;
    sm.setQuota(2, q);

    KernelInfo k;
    {
        CtaTrace cta;
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x5000, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.exit();
        cta.warps.push_back(tb.take());
        cta.warps.push_back(cta.warps[0]);
        k.name = "quota";
        k.stream = 2;
        k.grid = {64, 1, 1};
        k.cta = {64, 1, 1};
        k.regsPerThread = 16;
        k.source = std::make_shared<VectorCtaSource>(
            std::vector<CtaTrace>(64, cta));
    }
    uint32_t launched = 0;
    Cycle now = 0;
    while ((launched < 64 || !sm.idle()) && now < 500000) {
        if (launched < 64 && sm.canAccept(k)) {
            sm.launchCta(k, 1, launched++, now);
        }
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
        EXPECT_LE(sm.usedThreadsOf(2), quota_threads);
    }
    EXPECT_EQ(launched, 64u);
    EXPECT_TRUE(sm.idle());
}

INSTANTIATE_TEST_SUITE_P(Quotas, QuotaSweep,
                         ::testing::Values(64u, 128u, 256u, 1024u));


// ---------------------------------------------------------------------
// The GTO scheduler drains a kernel of many memory-then-ALU warps.
// ---------------------------------------------------------------------

TEST(SchedulerSweep, MultiWarpKernelDrains)
{
    SmConfig cfg;
    DelayFabric fabric(100);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
    CtaTrace cta;
    for (int w = 0; w < 12; ++w) {
        TraceBuilder tb(32);
        tb.memStrided(Opcode::LDG, 4, 0x10000 + w * 0x1000, 4, 4,
                      DataClass::Compute);
        tb.aluChain(Opcode::FFMA, 5, 4, 10);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    KernelInfo k;
    k.name = "sched";
    k.grid = {1, 1, 1};
    k.cta = {12 * 32, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    sm.launchCta(k, 1, 0, 0);
    Cycle now = 0;
    while (!sm.idle() && now < 100000) {
        ++now;
        stepSm(sm, now);
        fabric.step(sm, now);
    }
    EXPECT_TRUE(sm.idle());
    EXPECT_EQ(stats.stream(0).instructions, 12u * 12u);
}

// ---------------------------------------------------------------------
// Due stepping: an SM stepped only when due(), its memory phase run
// only while it has unparked work, is indistinguishable from one stepped
// and granted every cycle — same per-stream stats, drain cycle and work
// count — and every park it holds passes the audit on every cycle.
// ---------------------------------------------------------------------

enum class DueWorkload
{
    Mixed,      ///< Misses, L1 hits, smem, SFU, const, stores, LDST floods.
    Priority,   ///< Priority stream beside a flood; priorities cleared.
    Barrier,    ///< Staggered warps, two barriers, smem port contention.
    MshrFull,   ///< Two L1 MSHR entries, two targets: the LDST head parks.
    PriorityFront ///< Priority L1 hits land in front of a parked head.
};

struct DueCase
{
    DueWorkload workload;
    const char *name;
};

void
PrintTo(const DueCase &c, std::ostream *os)
{
    *os << c.name;
}

struct TimedLaunch
{
    Cycle at;
    KernelInfo kernel;
};

KernelInfo
ctaKernel(std::vector<WarpTrace> warps, StreamId stream, const char *name)
{
    KernelInfo k;
    k.name = name;
    k.stream = stream;
    k.grid = {1, 1, 1};
    k.cta = {static_cast<uint32_t>(warps.size()) * 32, 1, 1};
    k.regsPerThread = 16;
    CtaTrace cta;
    cta.warps = std::move(warps);
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

/** A warp that misses, re-reads the same lines as L1 hits (its consumer
 *  waits on the hit's landing), then floods the LDST queue. */
WarpTrace
mixedWarp(uint32_t w)
{
    const Addr base = 0x100000 + 0x10000 * w;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, base, 4, 4, DataClass::Compute);
    tb.aluChain(Opcode::FFMA, 5, 4, 3);
    tb.memStrided(Opcode::LDG, 6, base, 4, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 7, 6, 6);
    tb.memStrided(Opcode::LDS, 8, 0x40 * w, 128, 4, DataClass::Compute);
    tb.alu(Opcode::MUFU_SIN, 9, 8);
    tb.memUniform(Opcode::LDC, 10, 0x200, 4, DataClass::Compute);
    tb.alu(Opcode::BRA, kNoReg, 10);
    tb.memStrided(Opcode::STG, kNoReg, base + 0x8000, 4, 4,
                  DataClass::Compute);
    for (uint32_t i = 0; i < 6; ++i) {
        tb.memStrided(Opcode::LDG, static_cast<uint8_t>(12 + i),
                      base + 0x1000 * (i + 1), kLineBytes, 4,
                      DataClass::Compute);
    }
    tb.alu(Opcode::IADD, 20, 12, 17);
    tb.exit();
    return tb.take();
}

/** A warp whose loads each span several lines, so a two-entry L1 MSHR
 *  fills at once, then a line every warp shares (merges past a two-target
 *  list stall). */
WarpTrace
missWarp(uint32_t w)
{
    const Addr base = 0x400000 + 0x10000 * w;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, base, 16, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.memStrided(Opcode::LDG, 6, base + 0x1000, 16, 4, DataClass::Compute);
    tb.memUniform(Opcode::LDG, 7, 0x500000, 4, DataClass::Compute);
    tb.alu(Opcode::IADD, 8, 6, 7);
    tb.exit();
    return tb.take();
}

/** A priority warp that misses on one line, then re-reads it as an L1
 *  hit at a time the flood behind it keeps the MSHR full. */
WarpTrace
rereadWarp()
{
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x600000, 4, DataClass::Compute);
    tb.aluChain(Opcode::FFMA, 5, 4, 3);
    tb.memUniform(Opcode::LDG, 6, 0x600000, 4, DataClass::Compute);
    tb.aluChain(Opcode::FFMA, 7, 6, 3);
    tb.memUniform(Opcode::LDG, 8, 0x600000, 4, DataClass::Compute);
    tb.alu(Opcode::IADD, 9, 8, 7);
    tb.exit();
    return tb.take();
}

std::vector<TimedLaunch>
dueLaunches(DueWorkload workload)
{
    std::vector<TimedLaunch> launches;
    switch (workload) {
      case DueWorkload::Mixed: {
        std::vector<WarpTrace> warps;
        for (uint32_t w = 0; w < 6; ++w) {
            warps.push_back(mixedWarp(w));
        }
        launches.push_back({1, ctaKernel(std::move(warps), 0, "mixed")});
        // A second CTA lands on a busy SM mid-run.
        launches.push_back({90, ctaKernel({mixedWarp(7), mixedWarp(8)}, 0,
                                          "mixed2")});
        break;
      }
      case DueWorkload::Priority: {
        std::vector<WarpTrace> flood;
        for (uint32_t w = 0; w < 8; ++w) {
            flood.push_back(mixedWarp(w));
        }
        launches.push_back({1, ctaKernel(std::move(flood), 0, "flood")});
        launches.push_back({40, ctaKernel({mixedWarp(9)}, 1, "prio")});
        break;
      }
      case DueWorkload::Barrier: {
        std::vector<WarpTrace> warps;
        for (uint32_t w = 0; w < 8; ++w) {
            TraceBuilder tb(32);
            tb.aluChain(Opcode::FFMA, 5, 2, 2 * w + 1);
            tb.bar();
            // Every warp leaves the barrier for the one smem port, each
            // access serialized 32 ways: the SM wakes as the port frees.
            tb.memStrided(Opcode::LDS, 8, 0x40 * w, 128, 4,
                          DataClass::Compute);
            tb.memStrided(Opcode::LDG, 4, 0x300000 + 0x1000 * w, 4, 4,
                          DataClass::Compute);
            tb.alu(Opcode::FFMA, 6, 4, 5);
            tb.bar();
            tb.alu(Opcode::MUFU_SIN, 7, 6, 8);
            tb.exit();
            warps.push_back(tb.take());
        }
        launches.push_back({1, ctaKernel(std::move(warps), 0, "bar")});
        break;
      }
      case DueWorkload::MshrFull: {
        std::vector<WarpTrace> warps;
        for (uint32_t w = 0; w < 8; ++w) {
            warps.push_back(missWarp(w));
        }
        launches.push_back({1, ctaKernel(std::move(warps), 0, "miss")});
        break;
      }
      case DueWorkload::PriorityFront: {
        launches.push_back({1, ctaKernel({rereadWarp()}, 1, "reread")});
        std::vector<WarpTrace> flood;
        for (uint32_t w = 0; w < 8; ++w) {
            flood.push_back(missWarp(w));
        }
        launches.push_back({2, ctaKernel(std::move(flood), 0, "flood")});
        break;
      }
    }
    return launches;
}

std::string
streamStatsDump(const StatsRegistry &stats)
{
    std::ostringstream os;
    for (const auto &[id, st] : stats.allStreams()) {
        os << id << ':' << st.cycles << ',' << st.instructions << ','
           << st.warpsLaunched << ',' << st.ctasLaunched << ','
           << st.l1Accesses << ',' << st.l1Hits << ',' << st.l1MshrMerges
           << ',' << st.smemAccesses << ',' << st.smemBankConflicts << ','
           << st.firstCycle << ',' << st.lastCycle << '\n';
    }
    return os.str();
}

struct DueRun
{
    Cycle drained = 0;
    std::string stats;
    uint64_t slept = 0;          ///< Cycles the SM was not due.
    uint64_t ldstBlocked = 0;    ///< Cycles some warp waited on LDST room.
    uint64_t l1Hits = 0;
    /** Cycles the memory phase was skipped with a (parked) LDST head. */
    uint64_t headParked = 0;
    std::string auditFailure;    ///< First auditAccounting() failure.
};

DueRun
driveSm(const DueCase &c, bool due_only)
{
    SmConfig cfg;
    // A shallow, one-port LDST unit so issue regularly blocks on a full
    // queue and each line takes its own grant. In the priority case a
    // one-entry queue leaves the lower-priority stream no room at all
    // (its limit is half the depth) until the priorities are cleared.
    cfg.ldstQueueDepth = c.workload == DueWorkload::Priority ? 1 : 4;
    cfg.l1PortsPerCycle = 1;
    const bool mshr_bound = c.workload == DueWorkload::MshrFull ||
                            c.workload == DueWorkload::PriorityFront;
    if (mshr_bound) {
        cfg.l1MshrEntries = 2;
        cfg.l1MshrTargets = 2;
    }
    DelayFabric fabric(150);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
    if (c.workload == DueWorkload::Priority ||
        c.workload == DueWorkload::PriorityFront) {
        sm.setIssuePriority(1, -1);
    }

    std::vector<TimedLaunch> launches = dueLaunches(c.workload);
    size_t next = 0;
    bool cleared = false;
    DueRun run;
    Cycle now = 0;
    while ((next < launches.size() || !sm.idle()) && now < 100000) {
        ++now;
        while (next < launches.size() && launches[next].at == now) {
            EXPECT_TRUE(sm.canAccept(launches[next].kernel));
            sm.launchCta(launches[next].kernel, next + 1, 0, now);
            ++next;
        }
        if (c.workload == DueWorkload::Priority && !cleared &&
            now >= 100 && !sm.hasMemPhaseWork() &&
            sm.probe(now).waitLdst > 0) {
            // The flood waits for LDST room with the unit idle: only the
            // priority change itself can wake the SM.
            sm.clearIssuePriorities();
            cleared = true;
        }
        if (!due_only) {
            stepSm(sm, now);
        } else {
            if (sm.hasMemPhaseWork()) {
                sm.beginMemPhase(now);
                while (sm.memPhaseGrantRetry(now)) {
                }
                while (sm.memPhaseGrantLdst(now)) {
                }
            } else if (sm.probe(now).ldstQueueDepth > 0) {
                ++run.headParked;
            }
            if (sm.due(now)) {
                sm.step(now);
            } else {
                ++run.slept;
            }
        }
        if (sm.probe(now).waitLdst > 0) {
            ++run.ldstBlocked;
        }
        fabric.step(sm, now);
        std::string detail;
        if (!sm.auditAccounting(&detail) && run.auditFailure.empty()) {
            run.auditFailure = "cycle " + std::to_string(now) + ": " + detail;
        }
    }
    EXPECT_TRUE(sm.idle());
    EXPECT_EQ(cleared, c.workload == DueWorkload::Priority);
    // A drained SM has no live warp left to owe cycles to: no settle.
    run.drained = now;
    sm.foldStats();
    run.stats = streamStatsDump(stats);
    for (const auto &[id, st] : stats.allStreams()) {
        run.l1Hits += st.l1Hits;
    }
    return run;
}

class DueStepping : public ::testing::TestWithParam<DueCase>
{
};

TEST_P(DueStepping, MatchesSteppingEveryCycle)
{
    const DueRun every = driveSm(GetParam(), false);
    const DueRun due = driveSm(GetParam(), true);
    EXPECT_EQ(due.drained, every.drained);
    EXPECT_EQ(due.stats, every.stats);
    EXPECT_EQ(every.slept, 0u);
    // Every park held on every cycle of both runs.
    EXPECT_EQ(every.auditFailure, "");
    EXPECT_EQ(due.auditFailure, "");
    // The due run really slept, and through the states it must wake from.
    EXPECT_GT(due.slept, due.drained / 4) << "slept " << due.slept;
    const DueWorkload workload = GetParam().workload;
    if (workload != DueWorkload::Barrier) {
        EXPECT_GT(due.ldstBlocked, 0u);
        // Re-read lines hit in the L1; their consumers wake on the hit's
        // landing, not on a response.
        EXPECT_GT(due.l1Hits, 0u);
    }
    EXPECT_EQ(every.headParked, 0u);
    if (workload == DueWorkload::MshrFull ||
        workload == DueWorkload::PriorityFront) {
        // A head blocked on the full MSHR sat out memory phases until a
        // response (or a new priority head) cleared its park.
        EXPECT_GT(due.headParked, due.drained / 4)
            << "parked " << due.headParked;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DueStepping,
    ::testing::Values(
        DueCase{DueWorkload::Mixed, "GtoMixed"},
        DueCase{DueWorkload::Priority, "GtoPriority"},
        DueCase{DueWorkload::Barrier, "GtoBarrier"},
        DueCase{DueWorkload::MshrFull, "GtoMshrFull"},
        DueCase{DueWorkload::PriorityFront, "GtoPriorityFront"}),
    [](const ::testing::TestParamInfo<DueCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Determinism: the same kernel replayed twice takes identical cycles.
// ---------------------------------------------------------------------

TEST(CoreProperty, SimulationIsDeterministic)
{
    auto run_once = []() {
        SmConfig cfg;
        DelayFabric fabric(120);
        StatsRegistry stats;
        WakeCalendar calendar(1);
        Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
        CtaTrace cta;
        for (int w = 0; w < 8; ++w) {
            TraceBuilder tb(32);
            tb.memStrided(Opcode::LDG, 4, 0x10000 + w * 0x800, 4, 4,
                          DataClass::Compute);
            tb.aluChain(Opcode::FFMA, 5, 4, 12);
            tb.memStrided(Opcode::STG, 5, 0x80000 + w * 0x800, 4, 4,
                          DataClass::Compute);
            tb.exit();
            cta.warps.push_back(tb.take());
        }
        KernelInfo k;
        k.name = "det";
        k.grid = {1, 1, 1};
        k.cta = {256, 1, 1};
        k.regsPerThread = 16;
        k.source = std::make_shared<VectorCtaSource>(
            std::vector<CtaTrace>{std::move(cta)});
        sm.launchCta(k, 1, 0, 0);
        Cycle now = 0;
        while (!sm.idle() && now < 100000) {
            ++now;
            stepSm(sm, now);
            fabric.step(sm, now);
        }
        return std::make_pair(now, stats.stream(0).instructions);
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------
// Exact scoreboard unpark: a parked warp wakes on the cycle its last
// operand lands, not on each result.
// ---------------------------------------------------------------------

TEST(ExactUnpark, WarpWaitingOnTwoRegistersIssuesOnTheSecondWriteback)
{
    // r5 comes back after the FP32 latency, r6 after the SFU latency;
    // the consumer reads both. The consumer parks when the second
    // producer issues (the audit holds the park to the cycle its
    // operands land), the SM sleeps through the first result to the
    // second, and the consumer issues on that cycle, as when stepping
    // every cycle.
    auto run = [](bool due_only) {
        SmConfig cfg;
        DelayFabric fabric(100);
        StatsRegistry stats;
        WakeCalendar calendar(1);
        Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
        TraceBuilder tb(32);
        tb.alu(Opcode::FFMA, 5, 1, 2);
        tb.alu(Opcode::MUFU_SIN, 6, 1);
        tb.alu(Opcode::FFMA, 7, 5, 6);
        tb.exit();
        sm.launchCta(warpKernel(tb.take()), 1, 0, 0);
        std::vector<Cycle> issued_at;
        std::vector<Cycle> due_at;
        Cycle now = 0;
        while (!sm.idle() && now < 1000) {
            ++now;
            const uint64_t before = sm.issuedInstrsOf(0);
            if (!due_only || sm.due(now)) {
                due_at.push_back(now);
                stepSm(sm, now);
            }
            for (uint64_t i = before; i < sm.issuedInstrsOf(0); ++i) {
                issued_at.push_back(now);
            }
            std::string detail;
            EXPECT_TRUE(sm.auditAccounting(&detail))
                << "cycle " << now << ": " << detail;
        }
        return std::make_pair(issued_at, due_at);
    };
    const auto [every, every_due] = run(false);
    const auto [due, due_cycles] = run(true);
    const SmConfig cfg;
    ASSERT_EQ(every.size(), 4u);
    const Cycle first_wb = every[0] + cfg.fp32Latency;
    const Cycle second_wb = every[1] + cfg.sfuLatency;
    ASSERT_LT(first_wb, second_wb);
    EXPECT_EQ(every[2], second_wb);
    EXPECT_EQ(due, every);
    // Due cycles: the two producers (the second parks the consumer on
    // issuing), nothing until the second result lands, the consumer and
    // EXIT, then the consumer's own result landing with no warp left
    // (the SM is not idle before it).
    const std::vector<Cycle> expect_due = {
        every[0], every[1], second_wb, second_wb + 1,
        second_wb + cfg.fp32Latency};
    ASSERT_EQ(due_cycles.size(), expect_due.size());
    EXPECT_EQ(due_cycles, expect_due);
    EXPECT_EQ(expect_due, (std::vector<Cycle>{1, 2, 23, 24, 27}));
}

// ---------------------------------------------------------------------
// Exactness traps of the event-driven issue stage. Each case drives a
// bare SM stepped every cycle and one stepped only when due; both must
// issue on the same cycles, show the same scoreboard waits and drain on
// the same cycle, with every park audited on every cycle.
// ---------------------------------------------------------------------

/** Reads answer after a per-line delay, delivered before the SM's step
 *  (as the inter-GPU fabric delivers: usable that cycle) or after it (as
 *  the local L2 does: usable from the next). */
class TrapFabric : public MemFabricPort
{
  public:
    TrapFabric(Cycle delay, bool before_step,
               std::map<Addr, Cycle> line_delays)
        : delay_(delay), beforeStep_(before_step),
          lineDelays_(std::move(line_delays))
    {
    }

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        if (!req.write) {
            auto it = lineDelays_.find(req.line);
            pending_.emplace(
                now + (it == lineDelays_.end() ? delay_ : it->second), req);
        }
        return true;
    }

    /** Deliver the reads due at @p now if this is the fabric's side of
     *  the step (@p before_step). */
    void
    deliver(Sm &sm, Cycle now, bool before_step)
    {
        if (before_step != beforeStep_) {
            return;
        }
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            sm.memResponse(node.mapped(), before_step ? now : now + 1);
            deliveries.push_back(now);
        }
    }

    std::vector<Cycle> deliveries;

  private:
    Cycle delay_;
    bool beforeStep_;
    std::map<Addr, Cycle> lineDelays_;
    std::multimap<Cycle, MemRequest> pending_;
};

struct TrapRun
{
    std::vector<Cycle> issued;          ///< Cycle of each issue, in order.
    std::vector<Cycle> deliveries;      ///< Cycle of each response.
    std::vector<uint32_t> waitScoreboard; ///< probe() after each cycle.
    Cycle busyThrough = 0;  ///< Last cycle that ended with the SM busy.
    uint64_t steps = 0;
    std::string audit;      ///< First audit failure ("" = none).
};

/** Drive a bare SM for @p cycles, every cycle or only when due, with
 *  reads answered by a TrapFabric(@p delay, @p remote, @p line_delays).
 *  @p each(sm, now) runs at the top of each cycle (launches, freezes). */
template <typename Each>
TrapRun
runTrap(bool due_only, const SmConfig &cfg, Cycle delay, bool remote,
        const std::map<Addr, Cycle> &line_delays, Cycle cycles, Each each)
{
    TrapFabric fabric(delay, remote, line_delays);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));
    TrapRun run;
    for (Cycle now = 1; now <= cycles; ++now) {
        each(sm, now);
        fabric.deliver(sm, now, true);
        const uint64_t before = sm.issuedInstrsOf(0);
        if (!due_only) {
            stepSm(sm, now);
            ++run.steps;
        } else {
            if (sm.hasMemPhaseWork()) {
                sm.beginMemPhase(now);
                while (sm.memPhaseGrantRetry(now)) {
                }
                while (sm.memPhaseGrantLdst(now)) {
                }
            }
            if (sm.due(now)) {
                sm.step(now);
                ++run.steps;
            }
        }
        for (uint64_t i = before; i < sm.issuedInstrsOf(0); ++i) {
            run.issued.push_back(now);
        }
        fabric.deliver(sm, now, false);
        run.waitScoreboard.push_back(sm.probe(now).waitScoreboard);
        if (!sm.idle()) {
            run.busyThrough = now;
        }
        std::string detail;
        if (!sm.auditAccounting(&detail) && run.audit.empty()) {
            run.audit = "cycle " + std::to_string(now) + ": " + detail;
        }
    }
    run.deliveries = fabric.deliveries;
    return run;
}

void
expectSameRun(const TrapRun &every, const TrapRun &due)
{
    EXPECT_EQ(due.issued, every.issued);
    EXPECT_EQ(due.deliveries, every.deliveries);
    EXPECT_EQ(due.waitScoreboard, every.waitScoreboard);
    EXPECT_EQ(due.busyThrough, every.busyThrough);
    EXPECT_EQ(every.audit, "");
    EXPECT_EQ(due.audit, "");
    EXPECT_LT(due.steps, every.steps / 2);
}

/** Launches the kernels in order: the first at cycle 1, each next one
 *  the cycle after its predecessor's CTA commits. */
struct ChainLauncher
{
    std::vector<KernelInfo> kernels;
    size_t next = 0;

    void
    operator()(Sm &sm, Cycle now)
    {
        const bool committed = !sm.ctaDones().empty();
        sm.clearCtaDones();
        if (next < kernels.size() && (now == 1 || committed)) {
            ASSERT_TRUE(sm.canAccept(kernels[next]));
            sm.launchCta(kernels[next], next + 1, 0, now);
            ++next;
        }
    }
};

TEST(ExactWake, LocalResponseIsUsableNextCycleRemoteTheSameCycle)
{
    for (const bool remote : {false, true}) {
        SCOPED_TRACE(remote ? "remote" : "local");
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.exit();
        const KernelInfo k = warpKernel(tb.take());
        auto run = [&](bool due_only) {
            return runTrap(due_only, SmConfig{}, 60, remote, {}, 200,
                           ChainLauncher{{k}});
        };
        const TrapRun every = run(false);
        const TrapRun due = run(true);
        expectSameRun(every, due);
        ASSERT_EQ(every.issued.size(), 3u);
        ASSERT_EQ(every.deliveries.size(), 1u);
        const Cycle delivered = every.deliveries[0];
        EXPECT_EQ(every.issued[1], remote ? delivered : delivered + 1);
        // The probe at the end of the delivery cycle (the timeline's
        // sample): a local response still owes its consumer a cycle.
        EXPECT_EQ(every.waitScoreboard[delivered - 1], remote ? 0u : 1u);
    }
}

TEST(ExactWake, SmWithNoLiveWarpStaysBusyUntilItsLastResultLands)
{
    const SmConfig cfg;
    {
        // An SFU result nobody reads: the warp exits the cycle after.
        TraceBuilder tb(32);
        tb.alu(Opcode::MUFU_SIN, 5, 1);
        tb.exit();
        const KernelInfo k = warpKernel(tb.take());
        auto run = [&](bool due_only) {
            return runTrap(due_only, cfg, 60, false, {}, 100,
                           ChainLauncher{{k}});
        };
        const TrapRun every = run(false);
        const TrapRun due = run(true);
        expectSameRun(every, due);
        ASSERT_EQ(every.issued.size(), 2u);
        EXPECT_EQ(every.busyThrough, every.issued[0] + cfg.sfuLatency - 1);
    }
    for (const bool remote : {false, true}) {
        // A load nobody reads: busy until the step its data is usable.
        SCOPED_TRACE(remote ? "remote" : "local");
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
        tb.exit();
        const KernelInfo k = warpKernel(tb.take());
        auto run = [&](bool due_only) {
            return runTrap(due_only, cfg, 60, remote, {}, 200,
                           ChainLauncher{{k}});
        };
        const TrapRun every = run(false);
        const TrapRun due = run(true);
        expectSameRun(every, due);
        ASSERT_EQ(every.deliveries.size(), 1u);
        EXPECT_EQ(every.busyThrough, every.deliveries[0] - (remote ? 1 : 0));
    }
}

TEST(ExactWake, StaleWritesLandInASlotANewCtaReused)
{
    // Warp slot 0 is the first free slot, so each CTA below reuses it.
    // A write the slot's last warp left pending clears the new warp's
    // pending write of the same register when it lands, as a scoreboard
    // indexed by slot and register does: the consumer issues then, well
    // before its own load (200 cycles) returns.
    const SmConfig cfg;
    const Addr own = 0x9000;
    const std::map<Addr, Cycle> delays = {{own, 200}};
    auto reader = [own]() {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 5, own, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 6, 5, 5);
        tb.exit();
        return warpKernel(tb.take());
    };
    auto check = [&](const char *what, std::vector<KernelInfo> kernels,
                     size_t consumer, auto expect) {
        SCOPED_TRACE(what);
        auto run = [&](bool due_only) {
            return runTrap(due_only, cfg, 60, false, delays, 400,
                           ChainLauncher{kernels});
        };
        const TrapRun every = run(false);
        const TrapRun due = run(true);
        expectSameRun(every, due);
        ASSERT_GT(every.issued.size(), consumer);
        ASSERT_FALSE(every.deliveries.empty());
        EXPECT_EQ(every.issued[consumer], expect(every));
        EXPECT_LT(every.issued[consumer], every.deliveries.back());
    };
    {
        // A load in flight when its warp exits: its response clears.
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 5, 0x1000, 4, DataClass::Compute);
        tb.exit();
        check("stale response", {warpKernel(tb.take()), reader()}, 3,
              [](const TrapRun &r) { return r.deliveries[0] + 1; });
    }
    {
        // An SFU result landing after its warp exits.
        TraceBuilder tb(32);
        tb.alu(Opcode::MUFU_SIN, 5, 1);
        tb.exit();
        check("stale fixed-latency result",
              {warpKernel(tb.take()), reader()}, 3,
              [&cfg](const TrapRun &r) {
                  return r.issued[0] + cfg.sfuLatency;
              });
    }
    {
        // An L1 hit granted after its warp exits: a 32-line load ahead
        // of it in the one-port LDST unit holds it back 32 cycles.
        SmConfig one_port = cfg;
        one_port.l1PortsPerCycle = 1;
        TraceBuilder warm(32);
        warm.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
        warm.alu(Opcode::FFMA, 6, 4, 4);
        warm.exit();
        TraceBuilder tb(32);
        tb.memStrided(Opcode::LDG, 7, 0x20000, kLineBytes, 4,
                      DataClass::Compute);
        tb.memUniform(Opcode::LDG, 5, 0x1000, 4, DataClass::Compute);
        tb.exit();
        std::vector<KernelInfo> kernels = {warpKernel(warm.take()),
                                           warpKernel(tb.take()), reader()};
        auto run = [&](bool due_only) {
            return runTrap(due_only, one_port, 60, false, delays, 600,
                           ChainLauncher{kernels});
        };
        const TrapRun every = run(false);
        const TrapRun due = run(true);
        SCOPED_TRACE("stale L1 hit");
        expectSameRun(every, due);
        ASSERT_EQ(every.issued.size(), 9u);
        // The 32 lines take the grants after the load's issue; the hit
        // takes the next one and lands an L1 latency later.
        const Cycle hit_granted = every.issued[3] + 1 + 32;
        EXPECT_LT(every.issued[5], hit_granted);  // its warp's EXIT
        EXPECT_EQ(every.issued[7], hit_granted + one_port.l1HitLatency);
        EXPECT_LT(every.issued[7], every.deliveries.back());
    }
}

TEST(ExactWake, FrozenSmIssuesNothingAndResumesOnTime)
{
    // Loads and results land while the issue stage is frozen; after the
    // thaw the SM picks up exactly where stepping every cycle does.
    SmConfig cfg;
    cfg.ldstQueueDepth = 4;
    const KernelInfo k = ctaKernel(
        {mixedWarp(0), mixedWarp(1), mixedWarp(2), mixedWarp(3)}, 0, "m");
    const Cycle freeze = 30;
    const Cycle thaw = 250;
    auto run = [&](bool due_only) {
        ChainLauncher launch{{k}};
        return runTrap(due_only, cfg, 100, false, {}, 3000,
                       [&](Sm &sm, Cycle now) {
                           launch(sm, now);
                           if (now == freeze || now == thaw) {
                               sm.setIssueFrozen(now == freeze);
                           }
                       });
    };
    const TrapRun every = run(false);
    const TrapRun due = run(true);
    expectSameRun(every, due);
    ASSERT_FALSE(every.issued.empty());
    EXPECT_LT(every.issued.front(), freeze);
    EXPECT_EQ(std::count_if(every.issued.begin(), every.issued.end(),
                            [&](Cycle c) {
                                return c >= freeze && c < thaw;
                            }),
              0);
    EXPECT_EQ(every.issued.size(), 4 * mixedWarp(0).instrs.size());
    EXPECT_LT(every.busyThrough, 3000u);
}

// ---------------------------------------------------------------------
// Resource epoch: the CTA scheduler's canAccept memo. A refusal stands
// while the SM's epoch is unchanged; a commit, setQuota or clearQuotas
// moves it, and nothing else does.
// ---------------------------------------------------------------------

TEST(ResourceEpoch, RefusalStandsUntilCommitOrQuotaChange)
{
    SmConfig cfg;
    cfg.maxWarps = 16;
    DelayFabric fabric(60);
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));

    auto kernel = [](StreamId stream, uint32_t warps, uint32_t chain) {
        std::vector<WarpTrace> ws;
        for (uint32_t w = 0; w < warps; ++w) {
            TraceBuilder tb(32);
            tb.memStrided(Opcode::LDG, 4, 0x100000 * (stream + 1) + w * 0x400,
                          4, 4, DataClass::Compute);
            tb.aluChain(Opcode::FFMA, 5, 4, chain + w);
            tb.exit();
            ws.push_back(tb.take());
        }
        return ctaKernel(std::move(ws), stream, "epoch");
    };
    const std::vector<KernelInfo> kernels = {kernel(0, 4, 3), kernel(1, 6, 9),
                                             kernel(0, 8, 1)};
    // Per kernel, the epoch at which the SM last refused it (0 = none).
    std::vector<uint64_t> refused(kernels.size(), 0);
    Rng rng(0xe90c);
    uint64_t memo_hits = 0;
    uint64_t commits = 0;
    uint64_t quota_moves = 0;
    Cycle now = 0;
    for (int cycle = 0; cycle < 6000; ++cycle) {
        ++now;
        const uint64_t epoch = sm.resourceEpoch();
        const size_t k = rng.nextBelow(kernels.size());
        const bool accept = sm.canAccept(kernels[k]);
        if (refused[k] == epoch) {
            // The memo would skip this call: it must be a refusal.
            ASSERT_FALSE(accept) << "cycle " << now;
            ++memo_hits;
        }
        if (accept) {
            sm.launchCta(kernels[k], 1, 0, now);
            // A launch only consumes: no epoch move.
            ASSERT_EQ(sm.resourceEpoch(), epoch);
        } else {
            refused[k] = epoch;
        }
        if (rng.nextBelow(400) == 0) {
            // Quota changes move the epoch whatever they do.
            if (rng.nextBelow(2) == 0) {
                SmQuota q;
                q.maxThreads = 32 * static_cast<uint32_t>(
                                        4 + rng.nextBelow(12));
                sm.setQuota(static_cast<StreamId>(rng.nextBelow(2)), q);
            } else {
                sm.clearQuotas();
            }
            EXPECT_EQ(sm.resourceEpoch(), epoch + 1);
            ++quota_moves;
            continue;
        }
        const uint64_t before_step = sm.resourceEpoch();
        sm.beginMemPhase(now);
        while (sm.memPhaseGrantRetry(now)) {
        }
        while (sm.memPhaseGrantLdst(now)) {
        }
        sm.step(now);
        fabric.step(sm, now);
        // The epoch moves by exactly the CTAs committed this cycle.
        const size_t done = sm.ctaDones().size();
        EXPECT_EQ(sm.resourceEpoch(), before_step + done);
        commits += done;
        sm.clearCtaDones();
    }
    EXPECT_GT(memo_hits, 1000u);
    EXPECT_GT(commits, 100u);
    EXPECT_GT(quota_moves, 5u);
}

// ---------------------------------------------------------------------
// Wake calendar: the due list and the SMs' next wake, read from the
// calendar (plus the memory-phase set, as Gpu reads them), equal the
// per-SM due()/nextWorkCycle scan they replaced, on random states.
// ---------------------------------------------------------------------

/** A fabric that refuses every submission while refuse is set and
 *  answers accepted reads after a fixed delay. */
class SwitchedFabric : public MemFabricPort
{
  public:
    explicit SwitchedFabric(Cycle delay) : delay_(delay) {}

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        if (refuse) {
            return false;
        }
        if (!req.write) {
            pending_.emplace(now + delay_, req);
        }
        return true;
    }

    /** Deliver due reads to @p sm; @return true when one landed. */
    bool
    step(Sm &sm, Cycle now)
    {
        bool any = false;
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            // Delivered after the SM's step: usable from next cycle.
            sm.memResponse(node.mapped(), now + 1);
            any = true;
        }
        return any;
    }

    bool refuse = false;

  private:
    Cycle delay_;
    std::multimap<Cycle, MemRequest> pending_;
};

TEST(WakeCalendar, DueListAndNextWakeMatchThePerSmScan)
{
    // SMs in five roles by id % 5: mixed work; misses through a
    // two-entry L1 MSHR (parked LDST heads); mixed work with the issue
    // stage frozen and thawed at random; a fabric that refuses in long
    // spells (SMs with only retries); no work at all. 67 SMs span two
    // calendar words; on 7 and 13 each SM holds the earliest wake often.
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const uint32_t kSms = seed == 1 ? 67 : seed == 2 ? 7 : 13;
        Rng rng(seed);
        WakeCalendar calendar(kSms);
        StatsRegistry stats;
        std::vector<std::unique_ptr<SwitchedFabric>> fabrics;
        std::vector<std::unique_ptr<Sm>> sms;
        for (uint32_t i = 0; i < kSms; ++i) {
            SmConfig cfg;
            cfg.ldstQueueDepth = 4;
            cfg.l1PortsPerCycle = 1;
            if (i % 5 == 1) {
                cfg.l1MshrEntries = 2;
                cfg.l1MshrTargets = 2;
            }
            fabrics.push_back(std::make_unique<SwitchedFabric>(
                40 + rng.nextBelow(200)));
            sms.push_back(std::make_unique<Sm>(i, cfg, fabrics.back().get(),
                                               &stats, calendar.slot(i)));
        }
        // The memory-phase set, kept as Gpu keeps it.
        WorkSet members(kSms);
        uint64_t compared = 0, frozen_cycles = 0, retry_only = 0;
        uint64_t parked_heads = 0;
        std::vector<uint32_t> from_calendar, from_scan;
        for (Cycle now = 1; now <= 6000; ++now) {
            for (uint32_t i = 0; i < kSms; ++i) {
                Sm &sm = *sms[i];
                const uint32_t role = i % 5;
                if (role != 4 && rng.nextBelow(150) == 0) {
                    KernelInfo k = role == 1
                        ? ctaKernel({missWarp(i), missWarp(i + 1)}, 0, "m")
                        : ctaKernel({mixedWarp(i), mixedWarp(i + 1)}, 0,
                                    "x");
                    if (sm.canAccept(k)) {
                        sm.launchCta(k, 1, 0, now);
                    }
                }
                if (role == 2 && rng.nextBelow(50) == 0) {
                    sm.setIssueFrozen(!sm.issueFrozen());
                }
                if (role == 3 && rng.nextBelow(60) == 0) {
                    fabrics[i]->refuse = !fabrics[i]->refuse;
                }
            }
            // Memory phase over the set's members, in id order.
            members.forEachFrom(0, [&](size_t i) {
                Sm &sm = *sms[i];
                if (!sm.hasMemPhaseWork()) {
                    members.erase(i);
                    return;
                }
                sm.beginMemPhase(now);
                while (sm.memPhaseGrantRetry(now)) {
                }
                while (sm.memPhaseGrantLdst(now)) {
                }
            });
            // The due list from the calendar against due() on every SM.
            from_calendar.clear();
            from_scan.clear();
            calendar.forEachDue(now, [&](size_t i) {
                from_calendar.push_back(static_cast<uint32_t>(i));
            });
            for (uint32_t i = 0; i < kSms; ++i) {
                if (sms[i]->due(now)) {
                    from_scan.push_back(i);
                }
            }
            ASSERT_EQ(from_calendar, from_scan)
                << "seed " << seed << " cycle " << now;
            for (uint32_t i : from_calendar) {
                sms[i]->step(now);
                if (sms[i]->hasMemPhaseWork()) {
                    members.insert(i);
                }
            }
            for (uint32_t i = 0; i < kSms; ++i) {
                if (fabrics[i]->step(*sms[i], now) &&
                    sms[i]->hasMemPhaseWork()) {
                    members.insert(i);
                }
                sms[i]->clearCtaDones();
            }
            // The SMs' next wake, as Gpu::nextWakeCycle reads it.
            Cycle scan = kNeverCycle;
            for (uint32_t i = 0; i < kSms; ++i) {
                scan = std::min(scan, sms[i]->nextWorkCycle(now));
                const Sm::IntegrityProbe p = sms[i]->probe(now);
                frozen_cycles += p.issueFrozen ? 1 : 0;
                retry_only += p.fabricRetryDepth > 0 &&
                        !sms[i]->hasLdstWork() ? 1 : 0;
                parked_heads += p.ldstQueueDepth > 0 &&
                        !sms[i]->hasLdstWork() ? 1 : 0;
            }
            const Cycle from_set =
                members.anyOf([&](size_t i) {
                    return sms[i]->hasMemPhaseWork();
                })
                ? now + 1
                : std::max(calendar.earliest(), now + 1);
            ASSERT_EQ(from_set, scan) << "seed " << seed << " cycle " << now;
            ++compared;
        }
        EXPECT_EQ(compared, 6000u);
        EXPECT_GT(frozen_cycles, 0u) << "seed " << seed;
        EXPECT_GT(retry_only, 0u) << "seed " << seed;
        EXPECT_GT(parked_heads, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace crisp
