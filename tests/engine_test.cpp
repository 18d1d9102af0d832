#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/sm.hpp"
#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "isa/trace_builder.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"
#include "sm_step.hpp"

namespace crisp
{
namespace
{

// ---------------------------------------------------------------------
// Fixtures: a fabric stub and a memory-heavy kernel for the bare-SM
// fabric-retry tests, and a text dump of a stats registry.
// ---------------------------------------------------------------------

/** Fabric stub answering reads a fixed delay after submission. */
class TestFabric : public MemFabricPort
{
  public:
    explicit TestFabric(Cycle delay = 100) : delay_(delay) {}

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        if (refuseAll_ || (acceptBudget_ >= 0 && budgetLeft_ <= 0)) {
            return false;
        }
        if (acceptBudget_ >= 0) {
            --budgetLeft_;
        }
        ++submissions_;
        submissionsThisCycle_++;
        if (req.write) {
            return true;
        }
        pending_.emplace(now + delay_, req);
        return true;
    }

    void
    step(Sm &sm, Cycle now)
    {
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            sm.memResponse(node.mapped(), now);
        }
    }

    void
    newCycle()
    {
        budgetLeft_ = acceptBudget_;
        submissionsThisCycle_ = 0;
    }

    void setRefuseAll(bool refuse) { refuseAll_ = refuse; }
    /** Limit accepts per cycle; negative = unlimited. */
    void setAcceptBudget(int64_t budget) { acceptBudget_ = budget; }

    uint64_t submissions() const { return submissions_; }
    uint64_t submissionsThisCycle() const { return submissionsThisCycle_; }

  private:
    Cycle delay_;
    bool refuseAll_ = false;
    int64_t acceptBudget_ = -1;
    int64_t budgetLeft_ = -1;
    uint64_t submissions_ = 0;
    uint64_t submissionsThisCycle_ = 0;
    std::multimap<Cycle, MemRequest> pending_;
};

KernelInfo
streamingKernel(uint32_t loads, uint32_t stores)
{
    TraceBuilder tb(32);
    Addr addr = 0x1000;
    for (uint32_t i = 0; i < loads; ++i) {
        tb.memStrided(Opcode::LDG, static_cast<uint8_t>(8 + i % 24), addr,
                      kLineBytes, 4, DataClass::Compute);
        addr += kLineBytes * 32;
    }
    for (uint32_t i = 0; i < stores; ++i) {
        tb.memStrided(Opcode::STG, kNoReg, addr, kLineBytes, 4,
                      DataClass::Compute);
        addr += kLineBytes * 32;
    }
    tb.exit();
    CtaTrace cta;
    cta.warps.push_back(tb.take());
    KernelInfo k;
    k.name = "streaming";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 64;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

std::string
statsDump(const StatsRegistry &stats)
{
    std::ostringstream os;
    for (const auto &[id, st] : stats.allStreams()) {
        os << id << ':' << st.cycles << ',' << st.instructions << ','
           << st.warpsLaunched << ',' << st.ctasLaunched << ','
           << st.kernelsCompleted << ',' << st.l1Accesses << ','
           << st.l1Hits << ',' << st.l1TexAccesses << ',' << st.l2Accesses
           << ',' << st.l2Hits << ',' << st.dramReads << ','
           << st.dramWrites << ',' << st.smemAccesses << ','
           << st.smemBankConflicts << ',' << st.firstCycle << ','
           << st.lastCycle << '\n';
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Whole-machine determinism: the same mixed workload produces
// byte-identical stats, counter-series CSV and Chrome trace at 1, 2 and
// 4 threads.
// ---------------------------------------------------------------------

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.name = "small";
    cfg.numSms = 4;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 128.0;
    cfg.l2.numBanks = 4;
    cfg.l2.bankGeometry = {128 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

struct RunOutputs
{
    Cycle cycles = 0;
    std::string stats;
    std::string timelineCsv;
    std::string trace;
    uint64_t ffJumps = 0;
    uint64_t ffCycles = 0;
    /** Every stream's active cycles (summed over SMs). */
    uint64_t activeCycles = 0;
    /** Tick loop only: SM-cycles with a live warp, counted from outside. */
    uint64_t liveSmCycles = 0;
};

/** A PT frame on a graphics stream beside VIO on a compute stream, the
 *  graphics stream prioritised under fine-grained partitioning. */
void
submitMixedWorkload(Gpu &gpu)
{
    AddressSpace heap;
    static std::vector<std::unique_ptr<Scene>> keep_alive;
    keep_alive.push_back(
        std::make_unique<Scene>(buildSceneByName("PT", heap)));
    PipelineConfig pc;
    pc.width = 160;
    pc.height = 90;
    RenderPipeline pipe(pc, heap);
    const RenderSubmission frame = pipe.submit(*keep_alive.back());

    const StreamId gfx = gpu.createStream("graphics");
    const StreamId cmp = gpu.createStream("compute");
    submitFrame(gpu, gfx, frame);
    AddressSpace cheap(0x8000'0000ull);
    for (const KernelInfo &k : buildVio(cheap, 1, 160, 120)) {
        gpu.enqueueKernel(cmp, k);
    }
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    part.priorityStream = gfx;
    gpu.setPartition(part);
}

// Stats on read: each SM keeps its own per-stream blocks and
// Gpu::stats() folds them in, so reads between ticks do not disturb the
// run, and a tick loop run to done() reads what run() does.
TEST(EngineDeterminism, StatsReadsBetweenTicksMatchRun)
{
    Gpu ticked(smallGpu());
    submitMixedWorkload(ticked);
    size_t reads = 0;
    while (!ticked.done()) {
        ticked.tick();
        if (ticked.now() % 97 == 0) {
            (void)statsDump(ticked.stats());
            ++reads;
        }
    }
    ASSERT_GT(reads, 10u);

    Gpu gpu(smallGpu());
    submitMixedWorkload(gpu);
    ASSERT_TRUE(gpu.run(500'000'000ull).completed);
    EXPECT_EQ(statsDump(gpu.stats()), statsDump(ticked.stats()));
}

// ---------------------------------------------------------------------
// Idle fast-forward: run(), which always fast-forwards, and a plain
// tick() loop produce identical outputs, and run() actually jumped.
// Three inputs: an idle-heavy workload (two kernels separated by a long
// fixed-function delay); scenarios/game_inference.json, whose arrival
// cycles and after/delay chains wake the machine out of jumps that
// follow busy ticks; and an SFU-only grid whose CTAs launch one per SM
// per cycle while every SFU is busy, so a launch tick issues nothing.
// ---------------------------------------------------------------------

/** Two kernels on a new stream, the second 250k cycles after the first. */
void
enqueueIdleHeavy(Gpu &gpu, AddressSpace &heap)
{
    const StreamId s = gpu.createStream("compute");
    ComputeKernelDesc d;
    d.name = "burst";
    d.ctas = 8;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.fp32Ops = 16;
    d.loads = {{MemPatternKind::Streaming, heap.alloc(1 << 18), 1 << 18,
                4, 1, 128}};
    const KernelId first = gpu.enqueueKernel(s, buildComputeKernel(d));
    // A long fixed-function gap: the machine is completely idle between
    // the first kernel draining and the second becoming eligible.
    d.name = "burst2";
    gpu.enqueueKernelAfter(s, buildComputeKernel(d), first, 250'000);
}

/** 32 CTAs of eight warps, each warp four independent SFU ops: the
 *  first CTA on an SM fills its SFUs for sfuInterval cycles, and the
 *  next CTAs launch, one a cycle, into an SM that cannot issue. */
KernelInfo
sfuBurstKernel()
{
    std::vector<CtaTrace> ctas(32);
    for (CtaTrace &cta : ctas) {
        for (uint32_t w = 0; w < 8; ++w) {
            TraceBuilder tb(32);
            for (uint8_t r = 0; r < 4; ++r) {
                tb.alu(Opcode::MUFU_SIN, r);
            }
            tb.exit();
            cta.warps.push_back(tb.take());
        }
    }
    KernelInfo k;
    k.name = "sfu-burst";
    k.grid = {32, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(std::move(ctas));
    return k;
}

enum class FfInput
{
    IdleHeavy,
    GameInference,
    SfuBurst,
};

RunOutputs
runFastForwardInput(FfInput input, bool ticked)
{
    telemetry::TelemetryConfig tc;
    tc.sampleInterval = 1000;
    telemetry::TelemetrySink sink(tc);
    AddressSpace heap(0x8000'0000ull);
    scenario::Materialized mat;
    std::unique_ptr<Gpu> owner;
    if (input == FfInput::IdleHeavy) {
        owner = std::make_unique<Gpu>(smallGpu());
        owner->setTelemetry(&sink);
        enqueueIdleHeavy(*owner, heap);
    } else if (input == FfInput::SfuBurst) {
        owner = std::make_unique<Gpu>(smallGpu());
        owner->setTelemetry(&sink);
        owner->enqueueKernel(owner->createStream("sfu"), sfuBurstKernel());
    } else {
        scenario::Scenario scn;
        scenario::ScenarioError err;
        EXPECT_TRUE(scenario::loadScenarioFile(
            std::string(CRISP_SCENARIO_DIR) + "/game_inference.json", scn,
            err))
            << err.str();
        EXPECT_EQ(scn.gpu.numGpus, 1u);
        owner = std::make_unique<Gpu>(scenario::gpuConfigFor(scn));
        owner->setTelemetry(&sink);
        scenario::submitScenario(scn, *owner, heap, mat);
    }
    Gpu &gpu = *owner;

    RunOutputs out;
    if (ticked) {
        // The cycle-by-cycle reference. An SM has a live warp in a cycle
        // if it has one after the tick, or had one before it and lost it
        // in the tick (warps retire while their SM steps; no CTA of the
        // idle-heavy kernels launches and retires within one cycle).
        std::vector<bool> was_live(gpu.numSms(), false);
        while (!gpu.done()) {
            gpu.tick();
            for (uint32_t i = 0; i < gpu.numSms(); ++i) {
                const bool live = gpu.sm(i).activeWarps() > 0;
                if (live || was_live[i]) {
                    ++out.liveSmCycles;
                }
                was_live[i] = live;
            }
        }
        out.cycles = gpu.now();
    } else {
        const auto r = gpu.run(500'000'000ull);
        EXPECT_TRUE(r.completed);
        out.cycles = r.cycles;
    }
    out.stats = statsDump(gpu.stats());
    out.timelineCsv = sink.series().toTable().toCsv();
    out.trace = telemetry::chromeTraceJson(sink);
    out.ffJumps = gpu.fastForwardJumps();
    out.ffCycles = gpu.fastForwardCycles();
    for (const auto &[id, st] : gpu.stats().allStreams()) {
        out.activeCycles += st.cycles;
    }
    return out;
}

TEST(FastForward, IdleJumpPreservesOutputs)
{
    const struct
    {
        FfInput input;
        const char *name;
        uint64_t minSkipped;
    } inputs[] = {
        {FfInput::IdleHeavy, "idle-heavy", 100'000},
        {FfInput::GameInference, "game_inference.json", 100'000},
        {FfInput::SfuBurst, "sfu-burst", 1},
    };
    for (const auto &[input, name, min_skipped] : inputs) {
        SCOPED_TRACE(name);
        const RunOutputs ticked = runFastForwardInput(input, true);
        const RunOutputs jumped = runFastForwardInput(input, false);

        EXPECT_EQ(ticked.ffJumps, 0u);
        EXPECT_GT(jumped.ffJumps, 0u);
        EXPECT_GE(jumped.ffCycles, min_skipped);

        EXPECT_EQ(jumped.cycles, ticked.cycles);
        EXPECT_EQ(jumped.stats, ticked.stats);
        EXPECT_EQ(jumped.timelineCsv, ticked.timelineCsv);
        EXPECT_EQ(jumped.trace, ticked.trace);

        EXPECT_GT(ticked.activeCycles, 0u);
        EXPECT_EQ(jumped.activeCycles, ticked.activeCycles);
        if (input == FfInput::IdleHeavy) {
            // Active cycles are credited lazily by sleeping SMs, in the
            // tick loop and across jumps alike: both count exactly the
            // SM-cycles that had a live warp.
            EXPECT_EQ(ticked.activeCycles, ticked.liveSmCycles);
        }
    }
}

TEST(FastForward, WorksUnderTheWatchdog)
{
    // The watchdog must observe its checks at the exact configured
    // cadence even while the engine jumps, and the run must still drain.
    const RunOutputs ticked = runFastForwardInput(FfInput::IdleHeavy, true);

    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    telemetry::TelemetryConfig tc;
    tc.sampleInterval = 1000;
    telemetry::TelemetrySink sink(tc);
    gpu.setTelemetry(&sink);
    enqueueIdleHeavy(gpu, heap);

    integrity::RunOptions opts;
    opts.checkInterval = 5'000;
    const auto r = gpu.run(500'000'000ull, opts);
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    EXPECT_GT(gpu.fastForwardJumps(), 0u);
    EXPECT_EQ(r.cycles, ticked.cycles);
    EXPECT_EQ(statsDump(gpu.stats()), ticked.stats);
}

// ---------------------------------------------------------------------
// Exact counters on an early stop: a run capped or cancelled while its
// only SM sleeps on DRAM misses settles the sleeping cycles, so the
// stream's active cycles are exactly the cycles it had a live warp.
// ---------------------------------------------------------------------

class CancelAt : public GpuController
{
  public:
    CancelAt(std::atomic<bool> &token, Cycle at) : token_(token), at_(at) {}

    void
    onCycle(Gpu &gpu, Cycle now) override
    {
        (void)gpu;
        if (now == at_) {
            token_.store(true, std::memory_order_relaxed);
        }
    }

  private:
    std::atomic<bool> &token_;
    Cycle at_;
};

/** One CTA of four warps, each missing on one line before a dependent
 *  FFMA: after issue the SM sleeps for a whole DRAM round trip. */
KernelInfo
dramWaitKernel()
{
    CtaTrace cta;
    for (uint32_t w = 0; w < 4; ++w) {
        TraceBuilder tb(32);
        tb.memStrided(Opcode::LDG, 4, 0x40000 + 0x10000 * w, 4, 4,
                      DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    KernelInfo k;
    k.name = "dram-wait";
    k.grid = {1, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 32;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

GpuConfig
oneSmGpu()
{
    GpuConfig cfg = smallGpu();
    cfg.numSms = 1;
    cfg.finalize();
    return cfg;
}

TEST(EarlyStop, CappedAndCancelledRunsCountSleepingCyclesExactly)
{
    Gpu full(oneSmGpu());
    full.enqueueKernel(full.createStream("compute"), dramWaitKernel());
    ASSERT_TRUE(full.run().completed);
    const Cycle launch = full.stats().stream(0).firstCycle;
    ASSERT_GT(launch, 0u);
    // Stop well inside the DRAM wait.
    const Cycle stop_at = launch + 150;
    ASSERT_LT(stop_at, full.stats().stream(0).lastCycle);

    auto check_stopped = [&](Gpu &gpu, const Gpu::RunResult &r) {
        ASSERT_FALSE(r.completed);
        ASSERT_EQ(r.cycles, stop_at);
        // The SM slept through the stop: it had nothing to issue.
        EXPECT_GT(gpu.sm(0).activeWarps(), 0u);
        EXPECT_FALSE(gpu.sm(0).due(stop_at + 1));
        // Live from the launch cycle through the stop cycle.
        EXPECT_EQ(gpu.stats().stream(0).cycles, stop_at - launch + 1);
        // Resuming finishes exactly as the uninterrupted run did.
        ASSERT_TRUE(gpu.run().completed);
        EXPECT_EQ(gpu.now(), full.now());
        EXPECT_EQ(statsDump(gpu.stats()), statsDump(full.stats()));
    };

    Gpu capped(oneSmGpu());
    capped.enqueueKernel(capped.createStream("compute"), dramWaitKernel());
    const Gpu::RunResult rc = capped.run(stop_at);
    // The capped run also jumped over cycles its warps were live in (the
    // cancelling controller keeps the other run from jumping at all).
    EXPECT_GT(capped.fastForwardCycles(), 0u);
    check_stopped(capped, rc);

    Gpu cancelled(oneSmGpu());
    cancelled.enqueueKernel(cancelled.createStream("compute"),
                            dramWaitKernel());
    std::atomic<bool> cancel{false};
    CancelAt controller(cancel, stop_at);
    cancelled.addController(&controller);
    integrity::RunOptions opts;
    opts.cancel = &cancel;
    const Gpu::RunResult rx = cancelled.run(~0ull, opts);
    EXPECT_TRUE(rx.cancelled);
    cancel.store(false);
    check_stopped(cancelled, rx);
}

// ---------------------------------------------------------------------
// Fabric-retry fairness: the per-cycle retry drain is bounded, so a
// deeply backpressured SM cannot spend whole cycles flushing its retry
// queue while fresh requests starve.
// ---------------------------------------------------------------------

TEST(FabricRetry, DrainIsBoundedPerCycle)
{
    SmConfig cfg;
    cfg.maxFabricRetriesPerCycle = 8;
    TestFabric fabric(50);
    StatsRegistry stats;
    Sm sm(0, cfg, &fabric, &stats);

    // Phase 1: the fabric refuses everything while the SM issues a burst
    // of cold loads, building a deep retry queue.
    fabric.setRefuseAll(true);
    sm.launchCta(streamingKernel(40, 0), 1, 0, 0);
    Cycle now = 0;
    while (sm.pendingFabricReads() <
               3 * cfg.maxFabricRetriesPerCycle &&
           now < 1000) {
        ++now;
        fabric.newCycle();
        stepSm(sm, now);
    }
    ASSERT_GE(sm.pendingFabricReads(), 3 * cfg.maxFabricRetriesPerCycle);

    // Phase 2: the fabric opens fully. The drain must not exceed the cap
    // in any single cycle.
    fabric.setRefuseAll(false);
    while (sm.pendingFabricReads() > 0 && now < 2000) {
        ++now;
        fabric.newCycle();
        stepSm(sm, now);
        EXPECT_LE(fabric.submissionsThisCycle(),
                  cfg.maxFabricRetriesPerCycle + cfg.l1PortsPerCycle);
        fabric.step(sm, now);
    }
    EXPECT_EQ(sm.pendingFabricReads(), 0u);
}

TEST(FabricRetry, FreshRequestsAreNotLivelockedByBacklog)
{
    // An SM with a retry backlog deeper than the fabric's per-cycle
    // accept budget: with an unbounded drain the backlog would consume
    // the whole budget every cycle and fresh misses would join the back
    // of the queue indefinitely; the cap leaves budget for fresh
    // requests to submit directly.
    SmConfig cfg;
    cfg.maxFabricRetriesPerCycle = 8;
    TestFabric fabric(50);
    StatsRegistry stats;
    Sm sm(0, cfg, &fabric, &stats);

    fabric.setRefuseAll(true);
    sm.launchCta(streamingKernel(40, 0), 1, 0, 0);
    Cycle now = 0;
    while (sm.pendingFabricReads() < 30 && now < 1000) {
        ++now;
        fabric.newCycle();
        stepSm(sm, now);
    }
    const uint64_t backlog = sm.pendingFabricReads();
    ASSERT_GE(backlog, 30u);

    // Reopen with a budget just above the cap: every cycle the capped
    // drain uses at most maxFabricRetriesPerCycle accepts, leaving room
    // for the LDST unit's fresh submissions the same cycle.
    fabric.setRefuseAll(false);
    fabric.setAcceptBudget(cfg.maxFabricRetriesPerCycle + 2);
    bool fresh_progressed = false;
    for (int i = 0; i < 50 && sm.pendingFabricReads() > 0; ++i) {
        ++now;
        fabric.newCycle();
        const uint64_t before = fabric.submissions();
        stepSm(sm, now);
        // Accepts happened and the retry queue shrank monotonically:
        // the budget above the cap means fresh LDST traffic can always
        // reach the fabric the cycle it misses.
        if (fabric.submissions() >
            before + cfg.maxFabricRetriesPerCycle) {
            fresh_progressed = true;
        }
        fabric.step(sm, now);
    }
    EXPECT_TRUE(fresh_progressed);
    EXPECT_EQ(sm.pendingFabricReads(), 0u);
}

TEST(FabricRetry, DefaultCapIsFinite)
{
    // The out-of-the-box cap bounds the per-cycle drain: two full
    // l1PortsPerCycle generations of refused traffic. A default of 0
    // would silently restore the unbounded flush this cap exists to
    // prevent.
    EXPECT_EQ(SmConfig{}.maxFabricRetriesPerCycle, 8u);
}

TEST(FabricRetry, ZeroCapIsRejected)
{
    // There is no unbounded drain: a zero cap is a configuration error
    // caught when the SM is built, not a silent opt-out.
    SmConfig cfg;
    cfg.maxFabricRetriesPerCycle = 0;
    TestFabric fabric(50);
    StatsRegistry stats;
    EXPECT_EXIT(Sm(0, cfg, &fabric, &stats), testing::ExitedWithCode(1),
                "maxFabricRetriesPerCycle must be at least 1");
}

} // namespace
} // namespace crisp
