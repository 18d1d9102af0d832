#include <gtest/gtest.h>

#include "partition/tap.hpp"
#include "partition/warped_slicer.hpp"
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
    cfg.l2.numBanks = 2;
    cfg.l2.bankGeometry = {64 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

ComputeKernelDesc
memoryHeavyDesc(const std::string &name, uint32_t ctas, Addr base)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = ctas;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.fp32Ops = 8;
    d.loads = {{MemPatternKind::Streaming, base, 1 << 22, 4, 4, 128}};
    d.store = {MemPatternKind::Streaming, base + (1 << 22), 1 << 20, 4, 1,
               128};
    d.hasStore = true;
    return d;
}

ComputeKernelDesc
computeBoundDesc(const std::string &name, uint32_t ctas)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = ctas;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.iterations = 4;
    d.fp32Ops = 64;
    d.sfuOps = 8;
    d.loads = {{MemPatternKind::Broadcast, 0x9000000, 4096, 16, 1, 1}};
    return d;
}

TEST(WarpedSlicerTest, SamplesAndDecides)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("cmp");
    gpu.enqueueKernel(a, buildComputeKernel(
        memoryHeavyDesc("a", 64, 0x1000000)));
    gpu.enqueueKernel(b, buildComputeKernel(computeBoundDesc("b", 64)));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);

    WarpedSlicerConfig cfg;
    cfg.streamA = a;
    cfg.streamB = b;
    cfg.sampleCycles = 500;
    WarpedSlicer slicer(cfg);
    gpu.addController(&slicer);

    ASSERT_TRUE(gpu.run(10'000'000).completed);
    EXPECT_GE(slicer.samplingPhases(), 1u);
    ASSERT_FALSE(slicer.decisions().empty());
    for (const auto &[cycle, share] : slicer.decisions()) {
        EXPECT_GT(share, 0.0);
        EXPECT_LT(share, 1.0);
    }
}

TEST(WarpedSlicerTest, ResetsAtEachKernelLaunch)
{
    Gpu gpu(tinyGpu(4));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("cmp");
    // Three kernels on stream a: each launch restarts sampling.
    for (int i = 0; i < 3; ++i) {
        // Appending, not `"a" + std::to_string(i)`: GCC 12 inlines that
        // operator+ into a false -Wrestrict warning.
        std::string name = "a";
        name += std::to_string(i);
        gpu.enqueueKernel(
            a, buildComputeKernel(memoryHeavyDesc(name, 16, 0x1000000)));
    }
    gpu.enqueueKernel(b, buildComputeKernel(computeBoundDesc("b", 48)));
    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    gpu.setPartition(part);

    WarpedSlicerConfig cfg;
    cfg.streamA = a;
    cfg.streamB = b;
    cfg.sampleCycles = 300;
    WarpedSlicer slicer(cfg);
    gpu.addController(&slicer);
    ASSERT_TRUE(gpu.run(10'000'000).completed);
    EXPECT_GE(slicer.samplingPhases(), 4u);  // 3 launches on a + 1 on b
}

TEST(WarpedSlicerTest, ConfigSharesSpanRange)
{
    WarpedSlicerConfig cfg;
    cfg.sampleCycles = 100;
    cfg.numConfigs = 4;
    WarpedSlicer slicer(cfg);
    // Default share before any decision is the even split.
    EXPECT_DOUBLE_EQ(slicer.currentShareA(), 0.5);
}

TEST(TapTest, RepartitionsAtEpochs)
{
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("cmp");
    gpu.enqueueKernel(a, buildComputeKernel(
        memoryHeavyDesc("a", 64, 0x1000000)));
    gpu.enqueueKernel(b, buildComputeKernel(
        memoryHeavyDesc("b", 64, 0x4000000)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    gpu.setPartition(part);

    TapConfig cfg;
    cfg.gfxStream = a;
    cfg.computeStream = b;
    cfg.epoch = 2000;
    TapController tap(cfg, gpu);
    gpu.addController(&tap);

    ASSERT_TRUE(gpu.run(20'000'000).completed);
    EXPECT_FALSE(tap.decisions().empty());
    const uint32_t sets = gpu.l2().config().bankGeometry.numSets();
    EXPECT_EQ(tap.gfxSets() + tap.computeSets(), sets);
    EXPECT_GE(tap.gfxSets(), 1u);
    EXPECT_GE(tap.computeSets(), 1u);
}

TEST(TapTest, ComputeBoundStreamGetsMinimumSets)
{
    Gpu gpu(tinyGpu(2));
    const StreamId a = gpu.createStream("gfx");
    const StreamId b = gpu.createStream("cmp");
    gpu.enqueueKernel(a, buildComputeKernel(
        memoryHeavyDesc("a", 96, 0x1000000)));
    // HOLO-like: virtually no memory traffic.
    gpu.enqueueKernel(b, buildComputeKernel(computeBoundDesc("b", 96)));
    PartitionConfig part;
    part.policy = PartitionPolicy::Mps;
    gpu.setPartition(part);

    TapConfig cfg;
    cfg.gfxStream = a;
    cfg.computeStream = b;
    cfg.epoch = 1500;
    TapController tap(cfg, gpu);
    gpu.addController(&tap);
    ASSERT_TRUE(gpu.run(20'000'000).completed);

    // While both streams were live, TAP assigned nearly everything to the
    // memory-heavy stream (the paper: "TAP ... assign[s] only 1 set to
    // HOLO kernels"). After one stream drains the monitors decay back, so
    // examine the decisions taken during co-execution.
    const uint32_t sets = gpu.l2().config().bankGeometry.numSets();
    const Cycle gfx_end = gpu.streamFinishCycle(a);
    bool saw_skewed = false;
    for (const auto &[cycle, gfx_sets] : tap.decisions()) {
        if (cycle <= gfx_end) {
            saw_skewed |= gfx_sets >= sets - sets / 8;
        }
    }
    EXPECT_TRUE(saw_skewed);
}

TEST(TapTest, SetWindowsActuallyConfineStreams)
{
    // Unit-level: drive the L2 directly with TAP-style windows.
    L2Config cfg;
    cfg.numBanks = 1;
    cfg.bankGeometry = {16 * kLineBytes, 2, kLineBytes};  // 8 sets x 2
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    l2.setResponseHandler([](const MemRequest &) {});
    l2.setStreamSetWindow(1, 0, 7);
    l2.setStreamSetWindow(2, 7, 1);

    Cycle now = 0;
    auto touch = [&](StreamId s, Addr line) {
        MemRequest req;
        req.line = line;
        req.stream = s;
        req.completionKey = line;
        while (!l2.submit(req, now)) {
            ++now;
            l2.step(now);
        }
        for (int i = 0; i < 600; ++i) {
            ++now;
            l2.step(now);
        }
    };
    for (int i = 0; i < 32; ++i) {
        touch(2, static_cast<Addr>(i) * kLineBytes);
    }
    // Stream 2 is confined to one set: at most 2 resident lines.
    EXPECT_LE(l2.composition().validLines, 2u);
}

TEST(TapTest, ShrinkStrandsLines)
{
    // Pins the stranded-line semantics: lines installed under a wide set
    // window stay resident after the window shrinks (new fills simply
    // can't reach them) and composition() reports them as stranded.
    L2Config cfg;
    cfg.numBanks = 1;
    cfg.bankGeometry = {16 * kLineBytes, 2, kLineBytes}; // 8 sets x 2
    StatsRegistry stats;
    L2Subsystem l2(cfg, &stats);
    l2.setResponseHandler([](const MemRequest &) {});
    l2.setStreamSetWindow(2, 0, 8);

    Cycle now = 0;
    auto touch = [&](StreamId s, Addr line) {
        MemRequest req;
        req.line = line;
        req.stream = s;
        req.completionKey = line;
        while (!l2.submit(req, now)) {
            ++now;
            l2.step(now);
        }
        for (int i = 0; i < 600; ++i) {
            ++now;
            l2.step(now);
        }
    };
    // Four lines landing in sets 0..3.
    for (int i = 0; i < 4; ++i) {
        touch(2, static_cast<Addr>(i) * kLineBytes);
    }
    ASSERT_EQ(l2.composition().validLines, 4u);
    EXPECT_EQ(l2.composition().strandedLines, 0u);

    // Shrink the stream to the last set: all four lines are now outside
    // the window. They are still valid (stranded counts overlap
    // validLines, it does not subtract from it).
    l2.setStreamSetWindow(2, 7, 1);
    EXPECT_EQ(l2.composition().strandedLines, 4u);
    EXPECT_EQ(l2.composition().validLines, 4u);
}

} // namespace
} // namespace crisp
