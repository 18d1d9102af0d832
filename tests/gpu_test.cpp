#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "gpu/gpu.hpp"
#include "isa/trace_builder.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"

namespace crisp
{
namespace
{

GpuConfig
tinyGpu(uint32_t sms = 4)
{
    GpuConfig cfg;
    cfg.name = "tiny";
    cfg.numSms = sms;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 128.0;
    cfg.l2.numBanks = 4;
    cfg.l2.bankGeometry = {64 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

ComputeKernelDesc
simpleDesc(const std::string &name, uint32_t ctas)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = ctas;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.fp32Ops = 16;
    d.intOps = 4;
    d.loads = {{MemPatternKind::Streaming, 0x100000, 1 << 20, 4, 2, 128}};
    d.store = {MemPatternKind::Streaming, 0x200000, 1 << 20, 4, 1, 128};
    d.hasStore = true;
    return d;
}

TEST(GpuTest, ConfigPresetsMatchTableII)
{
    const GpuConfig rtx = GpuConfig::rtx3070();
    EXPECT_EQ(rtx.numSms, 46u);
    EXPECT_EQ(rtx.sm.registers, 65536u);
    EXPECT_EQ(rtx.sm.maxWarps, 64u);
    EXPECT_EQ(rtx.sm.numSchedulers, 4u);
    EXPECT_DOUBLE_EQ(rtx.memoryBandwidthGBs, 448.0);
    // 4 MB L2 total.
    EXPECT_EQ(rtx.l2.numBanks * rtx.l2.bankGeometry.sizeBytes,
              4ull * 1024 * 1024);

    const GpuConfig orin = GpuConfig::jetsonOrin();
    EXPECT_EQ(orin.numSms, 14u);
    EXPECT_DOUBLE_EQ(orin.memoryBandwidthGBs, 200.0);
    EXPECT_EQ(orin.l2.numBanks * orin.l2.bankGeometry.sizeBytes,
              4ull * 1024 * 1024);
    // Orin's bytes-per-cycle is lower despite the same L2 size.
    EXPECT_LT(orin.dramBytesPerCycle(), rtx.dramBytesPerCycle());
}

TEST(GpuTest, RunsOneKernelToCompletion)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k", 8)));
    const auto result = gpu.run(2'000'000);
    ASSERT_TRUE(result.completed);
    const auto &st = gpu.stats().stream(s);
    EXPECT_EQ(st.ctasLaunched, 8u);
    EXPECT_EQ(st.kernelsCompleted, 1u);
    EXPECT_GT(st.instructions, 0u);
    EXPECT_GT(st.l1Accesses, 0u);
    EXPECT_GT(st.l2Accesses, 0u);
}

TEST(GpuTest, StreamKernelsExecuteInOrder)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("ordered");

    struct Watcher : GpuController
    {
        std::vector<KernelId> launches;
        std::vector<KernelId> completions;
        void
        onKernelLaunch(Gpu &, const KernelInfo &, KernelId id) override
        {
            launches.push_back(id);
        }
        void
        onKernelComplete(Gpu &, StreamId, KernelId id) override
        {
            completions.push_back(id);
        }
    } watcher;
    gpu.addController(&watcher);

    const KernelId k1 =
        gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 4)));
    const KernelId k2 =
        gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 4)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);

    ASSERT_EQ(watcher.launches.size(), 2u);
    ASSERT_EQ(watcher.completions.size(), 2u);
    EXPECT_EQ(watcher.launches[0], k1);
    EXPECT_EQ(watcher.completions[0], k1);
    // The second kernel launches only after the first completes.
    EXPECT_EQ(watcher.launches[1], k2);
}

TEST(GpuTest, TwoStreamsBothComplete)
{
    Gpu gpu(tinyGpu());
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 6)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 6)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    EXPECT_EQ(gpu.stats().stream(a).kernelsCompleted, 1u);
    EXPECT_EQ(gpu.stats().stream(b).kernelsCompleted, 1u);
    EXPECT_GT(gpu.streamFinishCycle(a), 0u);
    EXPECT_GT(gpu.streamFinishCycle(b), 0u);
}

/** Controller that samples per-stream SM residency every cycle. */
struct ResidencySampler : GpuController
{
    StreamId a;
    StreamId b;
    bool sawShared = false;       ///< Some SM ran both streams at once.
    bool sawAOnHighSm = false;    ///< Stream A resident on the top SM.
    bool sawBOnLowSm = false;     ///< Stream B resident on SM 0.

    void
    onCycle(Gpu &gpu, Cycle) override
    {
        for (uint32_t s = 0; s < gpu.numSms(); ++s) {
            const bool has_a = gpu.sm(s).activeCtasOf(a) > 0;
            const bool has_b = gpu.sm(s).activeCtasOf(b) > 0;
            sawShared |= has_a && has_b;
            if (s == gpu.numSms() - 1) {
                sawAOnHighSm |= has_a;
            }
            if (s == 0) {
                sawBOnLowSm |= has_b;
            }
        }
    }
};

TEST(GpuTest, MpsPartitionSeparatesSms)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 16)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 16)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    gpu.setPartition(part);

    ResidencySampler sampler;
    sampler.a = a;
    sampler.b = b;
    gpu.addController(&sampler);
    ASSERT_TRUE(gpu.run(2'000'000).completed);

    // Inter-SM partitioning: no SM ever runs both streams; stream A gets
    // the low half, stream B the high half.
    EXPECT_FALSE(sampler.sawShared);
    EXPECT_FALSE(sampler.sawAOnHighSm);
    EXPECT_FALSE(sampler.sawBOnLowSm);
}

TEST(GpuTest, FineGrainedSharesEverySm)
{
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 32)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 32)));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);

    ResidencySampler sampler;
    sampler.a = a;
    sampler.b = b;
    gpu.addController(&sampler);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_TRUE(sampler.sawShared);
}

TEST(GpuTest, ExhaustivePolicyPrioritizesFirstStream)
{
    // One kernel big enough to fill the machine: with the default policy
    // the second stream only starts once stream 0 cannot issue more.
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("first");
    const StreamId b = gpu.createStream("second");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 64)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 4)));
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    const auto &sa = gpu.stats().stream(a);
    const auto &sb = gpu.stats().stream(b);
    EXPECT_EQ(sa.ctasLaunched, 64u);
    EXPECT_EQ(sb.ctasLaunched, 4u);
    // Stream a started first.
    EXPECT_LE(sa.firstCycle, sb.firstCycle);
}

TEST(GpuTest, MigAppliesBankMasks)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("compute");
    gpu.enqueueKernel(a, buildComputeKernel(simpleDesc("ka", 8)));
    gpu.enqueueKernel(b, buildComputeKernel(simpleDesc("kb", 8)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mig;
    gpu.setPartition(part);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_EQ(gpu.stats().stream(a).kernelsCompleted, 1u);
    EXPECT_EQ(gpu.stats().stream(b).kernelsCompleted, 1u);
}

TEST(GpuTest, QuotaFromShare)
{
    Gpu gpu(tinyGpu());
    const SmQuota half = gpu.quotaFromShare(0.5);
    EXPECT_EQ(half.maxThreads, gpu.config().sm.maxWarps * kWarpSize / 2);
    EXPECT_EQ(half.maxRegisters, gpu.config().sm.registers / 2);
    EXPECT_EQ(half.maxSmemBytes, gpu.config().sm.smemBytes / 2);
}

TEST(GpuTest, PendingKernelsAndBusyStreams)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("q");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 2)));
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 2)));
    EXPECT_EQ(gpu.pendingKernels(), 2u);
    EXPECT_EQ(gpu.busyStreams(), 1u);
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    EXPECT_EQ(gpu.pendingKernels(), 0u);
    EXPECT_EQ(gpu.busyStreams(), 0u);
}

TEST(GpuTest, PerStreamStatsAreSeparate)
{
    Gpu gpu(tinyGpu());
    const StreamId a = gpu.createStream("a");
    const StreamId b = gpu.createStream("b");
    auto desc_a = simpleDesc("ka", 4);
    auto desc_b = simpleDesc("kb", 4);
    desc_b.fp32Ops = 64;  // b issues more instructions per thread
    gpu.enqueueKernel(a, buildComputeKernel(desc_a));
    gpu.enqueueKernel(b, buildComputeKernel(desc_b));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);
    ASSERT_TRUE(gpu.run(4'000'000).completed);
    EXPECT_GT(gpu.stats().stream(b).instructions,
              gpu.stats().stream(a).instructions);
}


TEST(GpuTest, KernelLogRecordsExecutionWindows)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("log");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k1", 4)));
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("k2", 4)));
    ASSERT_TRUE(gpu.run(2'000'000).completed);
    const auto &log = gpu.kernelLog();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].name, "k1");
    EXPECT_EQ(log[1].name, "k2");
    for (const auto &rec : log) {
        EXPECT_EQ(rec.ctas, 4u);
        EXPECT_GE(rec.completeCycle, rec.launchCycle);
    }
    // In-order stream: k2 launches after k1 completes.
    EXPECT_GE(log[1].launchCycle, log[0].completeCycle);
}

/** A one-warp-per-CTA kernel whose every CTA replays @p warp. */
KernelInfo
uniformKernel(const std::string &name, uint32_t ctas, const WarpTrace &warp)
{
    CtaTrace cta;
    cta.warps.push_back(warp);
    KernelInfo k;
    k.name = name;
    k.grid = {ctas, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>(ctas, cta));
    return k;
}

TEST(GpuTest, KernelCompletingAtLaunchLeavesLaterKernelsIntact)
{
    // launchCta retires a CTA whose warps all have empty traces at once.
    // That commit completes the first kernel while the CTA scheduler is
    // still walking the stream's active kernels; the second kernel must
    // launch all its CTAs regardless.
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("launch-time");
    telemetry::TelemetrySink sink;
    gpu.setTelemetry(&sink);

    TraceBuilder exit_only(32);
    exit_only.exit();
    const KernelId empty = gpu.enqueueKernelAfter(
        s, uniformKernel("empty", 1, WarpTrace{}), Gpu::kNoDependency);
    const KernelId exits = gpu.enqueueKernelAfter(
        s, uniformKernel("exits", 8, exit_only.take()), Gpu::kNoDependency);

    integrity::RunOptions opts;
    opts.checkInterval = 64;
    opts.auditInterval = 1;
    const auto r = gpu.run(100'000, opts);
    ASSERT_FALSE(r.hang.has_value()) << r.hang->render();
    ASSERT_TRUE(r.completed);

    const auto &log = gpu.kernelLog();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].id, empty);
    EXPECT_EQ(log[1].id, exits);
    EXPECT_EQ(gpu.stats().stream(s).ctasLaunched, 9u);
    EXPECT_EQ(gpu.stats().stream(s).kernelsCompleted, 2u);

    // The empty CTA is dispatched before it retires.
    const std::vector<telemetry::Event> events = sink.events();
    auto first = [&](telemetry::EventKind kind) {
        for (size_t i = 0; i < events.size(); ++i) {
            if (events[i].kind == kind && events[i].a == empty) {
                return i;
            }
        }
        return events.size();
    };
    const size_t dispatch = first(telemetry::EventKind::CtaDispatch);
    const size_t retire = first(telemetry::EventKind::CtaRetire);
    ASSERT_LT(dispatch, events.size());
    ASSERT_LT(retire, events.size());
    EXPECT_LT(dispatch, retire);
}

TEST(GpuTest, MidFlightCancellationLeavesCoherentState)
{
    Gpu gpu(tinyGpu());
    const StreamId s = gpu.createStream("compute");
    gpu.enqueueKernel(s, buildComputeKernel(simpleDesc("big", 64)));

    // A controller raises the cancellation token mid-kernel; the run
    // must stop at the next watchdog check, between ticks.
    struct Trigger : GpuController
    {
        std::atomic<bool> cancel{false};
        void
        onCycle(Gpu &, Cycle now) override
        {
            if (now >= 300) {
                cancel.store(true);
            }
        }
    } trigger;
    gpu.addController(&trigger);

    integrity::RunOptions opts;
    opts.checkInterval = 64;
    opts.cancel = &trigger.cancel;
    const auto r = gpu.run(2'000'000, opts);

    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
    EXPECT_GE(r.cycles, 300u);
    // Stopped at a check boundary shortly after the token was raised,
    // not at the cycle budget.
    EXPECT_LT(r.cycles, 300u + 2 * opts.checkInterval);

    // The truncated run is partial but coherent: work was launched and
    // counted, nothing was fabricated as finished.
    const auto &st = gpu.stats().stream(s);
    EXPECT_GT(st.instructions, 0u);
    EXPECT_GT(st.ctasLaunched, 0u);
    EXPECT_LE(st.ctasLaunched, 64u);
    EXPECT_EQ(st.kernelsCompleted, 0u);

    // Every cross-layer counter identity holds at the truncation point.
    std::vector<integrity::InvariantViolation> violations;
    audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), r.cycles,
                    violations);
    for (const auto &v : violations) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
}

} // namespace
} // namespace crisp
