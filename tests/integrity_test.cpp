#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "integrity/fault_injector.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp
{
namespace
{

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

RenderSubmission
smallFrame(AddressSpace &heap)
{
    static std::vector<std::unique_ptr<Scene>> keep_alive;
    keep_alive.push_back(
        std::make_unique<Scene>(buildSceneByName("PT", heap)));
    PipelineConfig pc;
    pc.width = 160;
    pc.height = 90;
    RenderPipeline pipe(pc, heap);
    return pipe.submit(*keep_alive.back());
}

/** Enqueue a small memory-heavy compute workload on @p stream. */
void
enqueueVio(Gpu &gpu, StreamId stream, AddressSpace &heap)
{
    for (const KernelInfo &k : buildVio(heap, 1, 160, 120)) {
        gpu.enqueueKernel(stream, k);
    }
}

bool
hasCheck(const integrity::HangReport &report, const std::string &check)
{
    for (const auto &v : report.violations) {
        if (v.check == check) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// Fault/detector matrix: every injected fault class trips exactly the
// detector built for it, and latency faults trip nothing.
// ---------------------------------------------------------------------

// A dropped DRAM fill leaves its L2 MSHR entry allocated forever: the
// age-based leak scan must name the leaked line, the owning bank, and
// the SMs waiting on it, within one watchdog interval of the entry
// passing the leak age.
TEST(FaultMatrixTest, DroppedFillIsCaughtByMshrLeakScan)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::FaultConfig fc;
    fc.dropFillProb = 1.0;
    fc.maxDroppedFills = 1;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 500;
    opts.mshrLeakAge = 2000;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->reason, "invariant violation: mshr-leak");
    for (const auto &v : r.hang->violations) {
        EXPECT_EQ(v.check, "mshr-leak") << v.detail;
    }

    ASSERT_EQ(inj.injections().size(), 1u);
    EXPECT_EQ(inj.injections()[0].kind, "drop-fill");
    const Addr dropped_line = inj.injections()[0].line;

    // The report names the dropped request's line in an L2 leak row.
    bool named = false;
    for (const auto &leak : r.hang->mshrLeaks) {
        if (leak.level == "L2" && leak.line == dropped_line) {
            named = true;
            EXPECT_FALSE(leak.smIds.empty());
        }
    }
    EXPECT_TRUE(named);

    // Detected within one watchdog interval of the entry aging out.
    EXPECT_LE(r.hang->detectedAt, inj.injections()[0].cycle +
                                      opts.mshrLeakAge +
                                      opts.checkInterval);

    const std::string text = r.hang->render();
    EXPECT_NE(text.find("CRISP integrity report"), std::string::npos);
    EXPECT_NE(text.find("mshr-leak"), std::string::npos);
}

// A dropped SM response breaks read conservation (accepted != delivered
// + outstanding) the moment it happens: detected at the next check tick,
// long before any age-based scan would fire.
TEST(FaultMatrixTest, DroppedResponseIsCaughtByConservation)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::FaultConfig fc;
    fc.dropResponseProb = 1.0;
    fc.maxDroppedResponses = 1;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 500;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->reason, "invariant violation: mem-conservation");
    for (const auto &v : r.hang->violations) {
        EXPECT_EQ(v.check, "mem-conservation") << v.detail;
    }
    EXPECT_TRUE(r.hang->mshrLeaks.empty());

    ASSERT_EQ(inj.injections().size(), 1u);
    EXPECT_EQ(inj.injections()[0].kind, "drop-response");
    EXPECT_LE(r.hang->detectedAt,
              inj.injections()[0].cycle + opts.checkInterval);
}

// Latency faults are legal behavior (a slow machine is not a broken
// machine): delayed fills and responses must trip no detector and the
// run must still complete.
TEST(FaultMatrixTest, DelaysNeverTripAnyDetector)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::FaultConfig fc;
    fc.delayFillProb = 1.0;
    fc.fillDelay = 400;
    fc.maxDelayedFills = 25;
    fc.delayResponseProb = 1.0;
    fc.responseDelay = 400;
    fc.maxDelayedResponses = 25;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 64;
    const auto r = gpu.run(500'000'000ull, opts);

    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    EXPECT_GE(inj.injections().size(), 1u);
}

// Delays *longer than the leak age* still must not trip the leak scan:
// a delayed fill or response is in flight the whole time, and an MSHR
// entry with live traffic is starved, not leaked — the scan requires
// orphanhood, not just age. (Real starvation of this magnitude happens
// under DRAM saturation; see the ray-traversal scenario.) The progress
// watchdog is parked high so the leak check is the only detector armed
// at this timescale.
TEST(FaultMatrixTest, DelaysBeyondLeakAgeAreStarvationNotLeaks)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::FaultConfig fc;
    fc.delayFillProb = 1.0;
    fc.fillDelay = 8000;
    fc.maxDelayedFills = 25;
    fc.delayResponseProb = 1.0;
    fc.responseDelay = 8000;
    fc.maxDelayedResponses = 25;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 64;
    opts.mshrLeakAge = 2000;        // far below the injected delays
    opts.hangThreshold = 50'000;    // progress watchdog out of the way
    const auto r = gpu.run(500'000'000ull, opts);

    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    EXPECT_GE(inj.injections().size(), 1u);
}

// A frozen issue stage stops one SM's CTAs from ever committing while
// everything else drains: the forward-progress watchdog must fire, and
// the report must single out the frozen SM.
TEST(FaultMatrixTest, FrozenSmIsCaughtByWatchdog)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::FaultConfig fc;
    fc.freezeSm = 1;
    fc.freezeAtCycle = 500;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 256;
    opts.hangThreshold = 4000;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_NE(r.hang->reason.find("no forward progress"),
              std::string::npos);
    EXPECT_TRUE(r.hang->violations.empty());

    ASSERT_EQ(r.hang->sms.size(), 4u);
    const auto &frozen = r.hang->sms[1];
    EXPECT_TRUE(frozen.issueFrozen);
    EXPECT_GT(frozen.activeWarps, 0u);
    EXPECT_EQ(frozen.dominantStall, "frozen");
    for (uint32_t i : {0u, 2u, 3u}) {
        EXPECT_FALSE(r.hang->sms[i].issueFrozen);
    }
}

// A corrupted dependency id makes a stream's front kernel wait on a
// kernel that can never complete: the stream-liveness checker must name
// the stream, the stuck kernel, and the bogus id.
TEST(FaultMatrixTest, CorruptedDependencyIsCaughtByStreamLiveness)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");

    integrity::FaultConfig fc;
    fc.corruptNthDependency = 1;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);
    enqueueVio(gpu, s, heap);

    integrity::RunOptions opts;
    opts.checkInterval = 500;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->reason, "invariant violation: stream-liveness");
    ASSERT_TRUE(hasCheck(*r.hang, "stream-liveness"));
    for (const auto &v : r.hang->violations) {
        EXPECT_EQ(v.check, "stream-liveness") << v.detail;
    }

    ASSERT_EQ(r.hang->streams.size(), 1u);
    EXPECT_EQ(r.hang->streams[0].blockingDep,
              integrity::FaultInjector::kCorruptDependencyId);
    EXPECT_GT(r.hang->streams[0].queuedKernels, 0u);
}

// An accounting leak stops the run while another stream's front kernel
// waits for its arrival cycle: that stream's row names the arrival, not
// SM resources.
TEST(FaultMatrixTest, SkewedAccountingReportNamesArrivalWait)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId busy = gpu.createStream("compute");
    enqueueVio(gpu, busy, heap);
    const StreamId late = gpu.createStream("arrivals");
    ComputeKernelDesc d;
    d.name = "late";
    d.ctas = 4;
    d.threadsPerCta = 64;
    gpu.enqueueKernelAt(late, buildComputeKernel(d), 1'000'000);

    for (int i = 0; i < 100; ++i) {
        gpu.tick();
    }
    gpu.sm(0).skewAccountingForFaultInjection(32);
    integrity::RunOptions opts;
    opts.checkInterval = 256;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->reason, "invariant violation: sm-accounting");
    ASSERT_EQ(r.hang->streams.size(), 2u);
    const auto &row = r.hang->streams[1];
    EXPECT_EQ(row.frontKernel, "late");
    EXPECT_EQ(row.blockReason, "arrival at cycle 1000000");
}

// Under Exhaustive a starved stream keeps every later stream from
// promoting, even one whose front kernel's dependency and delay have
// both cleared. A frozen SM starving the first stream is therefore a
// hang the watchdog must report, not a scheduled promotion.
TEST(FaultMatrixTest, FrozenSmStarvingAnOpenDependentFrontIsReported)
{
    GpuConfig cfg = smallGpu();
    cfg.numSms = 1;
    cfg.finalize();
    Gpu gpu(cfg);
    // Stream 0's grid arrives once stream 1's first kernel has drained,
    // and is too large to be resident at once.
    const StreamId starved = gpu.createStream("starved");
    ComputeKernelDesc big;
    big.name = "big";
    big.ctas = 64;
    big.threadsPerCta = 256;
    big.fp32Ops = 200;
    gpu.enqueueKernelAt(starved, buildComputeKernel(big), 5'000);
    // Stream 1's second kernel clears its dependency and delay while
    // stream 0 starves.
    const StreamId chain = gpu.createStream("chain");
    ComputeKernelDesc small;
    small.name = "first";
    small.ctas = 2;
    small.threadsPerCta = 64;
    const KernelId first = gpu.enqueueKernel(chain, buildComputeKernel(small));
    small.name = "second";
    gpu.enqueueKernelAfter(chain, buildComputeKernel(small), first, 10'000);

    integrity::FaultConfig fc;
    fc.freezeSm = 0;
    fc.freezeAtCycle = 6'000;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 256;
    opts.hangThreshold = 4000;
    const auto r = gpu.run(200'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_NE(r.hang->reason.find("no forward progress"),
              std::string::npos);
    ASSERT_EQ(r.hang->streams.size(), 2u);
    EXPECT_EQ(r.hang->streams[0].activeKernels, 1u);
    const auto &row = r.hang->streams[1];
    EXPECT_EQ(row.activeKernels, 0u);
    EXPECT_EQ(row.frontKernel, "second");
    EXPECT_EQ(row.blockReason, "SM resources");
}

// ---------------------------------------------------------------------
// False-positive guard: a clean concurrent render+compute run, audited
// on every single cycle, never trips a detector under any policy.
// ---------------------------------------------------------------------

TEST(CleanRunTest, ConcurrentFrameNeverTripsAtIntervalOne)
{
    AddressSpace heap;
    Gpu gpu(smallGpu());
    const StreamId gfx = gpu.createStream("graphics");
    const StreamId cmp = gpu.createStream("compute");
    const RenderSubmission frame = smallFrame(heap);
    submitFrame(gpu, gfx, frame);
    AddressSpace cheap(0x8000'0000ull);
    enqueueVio(gpu, cmp, cheap);

    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    part.priorityStream = gfx;
    gpu.setPartition(part);

    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const auto r = gpu.run(500'000'000ull, opts);

    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
}

// Watchdog determinism: the integrity layer at interval 1 must not
// perturb the simulation itself.
TEST(CleanRunTest, WatchdogDoesNotChangeSimulatedCycles)
{
    AddressSpace heap_a(0x8000'0000ull);
    Gpu plain(smallGpu());
    const StreamId sa = plain.createStream("compute");
    enqueueVio(plain, sa, heap_a);
    const auto ra = plain.run(500'000'000ull);

    AddressSpace heap_b(0x8000'0000ull);
    Gpu watched(smallGpu());
    const StreamId sb = watched.createStream("compute");
    enqueueVio(watched, sb, heap_b);
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const auto rb = watched.run(500'000'000ull, opts);

    ASSERT_TRUE(ra.completed);
    ASSERT_TRUE(rb.completed);
    EXPECT_EQ(ra.cycles, rb.cycles);
}

// ---------------------------------------------------------------------
// Work sets: the memory phase visits only the SMs in its memory-phase
// set and the L2 only its busy banks, so a missing member is a lost
// wakeup that would quietly shift timing. The invariant pass re-derives
// every set. Here two L1 MSHR entries per SM keep LDST heads parking on
// a full MSHR, so they unpark only through a memResponse; the sets must
// stay exact on every cycle.
// ---------------------------------------------------------------------

/** Counts SM-cycles with an LDST head parked (queued, but no work). */
class ParkedHeadCounter : public GpuController
{
  public:
    uint64_t parked = 0;

    void
    onCycle(Gpu &gpu, Cycle now) override
    {
        for (uint32_t i = 0; i < gpu.numSms(); ++i) {
            const Sm &sm = gpu.sm(i);
            if (!sm.hasMemPhaseWork() && sm.probe(now).ldstQueueDepth > 0) {
                ++parked;
            }
        }
    }
};

TEST(WorkSetAuditTest, MshrBoundRunKeepsWorkSetsExactAtIntervalOne)
{
    GpuConfig cfg = smallGpu();
    cfg.sm.l1MshrEntries = 2;
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(cfg);
    enqueueVio(gpu, gpu.createStream("compute"), heap);
    ParkedHeadCounter counter;
    gpu.addController(&counter);

    integrity::RunOptions opts;
    opts.checkInterval = 1;
    const auto r = gpu.run(500'000'000ull, opts);
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value()) << r.hang->render();
    EXPECT_GT(counter.parked, 1000u);
}

// ---------------------------------------------------------------------
// Enqueue/partition validation (the integrity layer's front door): bad
// arguments die loudly at the call site instead of hanging the run.
// ---------------------------------------------------------------------

TEST(ValidationDeathTest, EnqueueAfterRejectsUnknownDependency)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    const std::vector<KernelInfo> kernels = buildVio(heap, 1, 160, 120);
    EXPECT_EXIT(gpu.enqueueKernelAfter(s, kernels[0], 1234u),
                ::testing::ExitedWithCode(1), "never enqueued");
}

TEST(ValidationDeathTest, DependencyFromAnotherStreamIsRejected)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId a = gpu.createStream("a");
    const StreamId b = gpu.createStream("b");
    const std::vector<KernelInfo> kernels = buildVio(heap, 1, 160, 120);
    const KernelId on_a = gpu.enqueueKernel(a, kernels[0]);
    EXPECT_EXIT(gpu.enqueueKernelAfter(b, kernels[1], on_a),
                ::testing::ExitedWithCode(1), "never enqueued");
}

TEST(ValidationDeathTest, SmIndexOutOfRangeIsFatal)
{
    Gpu gpu(smallGpu());
    EXPECT_EXIT(gpu.sm(99), ::testing::ExitedWithCode(1), "out of range");
}

TEST(ValidationDeathTest, PartitionSharesAboveOneAreFatal)
{
    Gpu gpu(smallGpu());
    const StreamId a = gpu.createStream("a");
    const StreamId b = gpu.createStream("b");
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    part.share[a] = 0.7;
    part.share[b] = 0.6;
    EXPECT_EXIT(gpu.setPartition(part), ::testing::ExitedWithCode(1),
                "sum to");
}

TEST(ValidationDeathTest, PartitionNamingUnknownStreamIsFatal)
{
    Gpu gpu(smallGpu());
    gpu.createStream("a");
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    part.share[42] = 0.5;
    EXPECT_EXIT(gpu.setPartition(part), ::testing::ExitedWithCode(1),
                "does not exist");
}

} // namespace
} // namespace crisp
