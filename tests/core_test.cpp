#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/sm.hpp"
#include "isa/trace_builder.hpp"
#include "sm_step.hpp"

namespace crisp
{
namespace
{

/** Fabric stub: answers every read a fixed delay after submission. */
class TestFabric : public MemFabricPort
{
  public:
    explicit TestFabric(Cycle delay = 100) : delay_(delay) {}

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        ++submissions_;
        if (req.write) {
            ++writes_;
            return true;
        }
        pending_.emplace(now + delay_, req);
        return true;
    }

    /** Deliver due responses into @p sm. */
    void
    step(Sm &sm, Cycle now)
    {
        while (!pending_.empty() && pending_.begin()->first <= now) {
            auto node = pending_.extract(pending_.begin());
            sm.memResponse(node.mapped(), now);
        }
    }

    uint64_t submissions() const { return submissions_; }
    uint64_t writes() const { return writes_; }

  private:
    Cycle delay_;
    uint64_t submissions_ = 0;
    uint64_t writes_ = 0;
    std::multimap<Cycle, MemRequest> pending_;
};

KernelInfo
oneWarpKernel(WarpTrace warp, uint32_t regs = 16)
{
    CtaTrace cta;
    cta.warps.push_back(std::move(warp));
    KernelInfo k;
    k.name = "test";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = regs;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    return k;
}

struct SmHarness
{
    SmConfig cfg;
    TestFabric fabric;
    StatsRegistry stats;
    std::unique_ptr<Sm> sm;
    Cycle now = 0;

    explicit SmHarness(Cycle mem_delay = 100) : fabric(mem_delay)
    {
        sm = std::make_unique<Sm>(0, cfg, &fabric, &stats);
    }

    /** Step until the SM idles; returns cycles taken. */
    Cycle
    runToIdle(Cycle budget = 100000)
    {
        const Cycle start = now;
        while (!sm->idle() && now - start < budget) {
            ++now;
            stepSm(*sm, now);
            fabric.step(*sm, now);
        }
        return now - start;
    }
};

TEST(SmTest, RunsSimpleAluWarp)
{
    SmHarness h;
    TraceBuilder tb(32);
    for (int i = 0; i < 10; ++i) {
        tb.alu(Opcode::FFMA, static_cast<uint8_t>(4 + i), 1, 2);
    }
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    ASSERT_TRUE(h.sm->canAccept(k));
    h.sm->launchCta(k, 1, 0, h.now);
    h.runToIdle();
    EXPECT_TRUE(h.sm->idle());
    EXPECT_EQ(h.stats.stream(0).instructions, 11u);
    EXPECT_EQ(h.stats.stream(0).warpsLaunched, 1u);
    EXPECT_EQ(h.stats.stream(0).ctasLaunched, 1u);
}

TEST(SmTest, DependentChainSlowerThanIndependent)
{
    // Dependent chain of 32 FFMA.
    SmHarness h1;
    TraceBuilder tb1(32);
    tb1.aluChain(Opcode::FFMA, 5, 2, 32);
    tb1.exit();
    auto k1 = oneWarpKernel(tb1.take());
    h1.sm->launchCta(k1, 1, 0, 0);
    const Cycle dep_cycles = h1.runToIdle();

    // 32 independent FFMA (distinct dests, no chains).
    SmHarness h2;
    TraceBuilder tb2(32);
    for (int i = 0; i < 32; ++i) {
        tb2.alu(Opcode::FFMA, static_cast<uint8_t>(8 + (i % 32)), 1, 2);
    }
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    const Cycle indep_cycles = h2.runToIdle();

    EXPECT_GT(dep_cycles, indep_cycles * 2);
}

TEST(SmTest, SfuHasLowerThroughputThanFp32)
{
    SmHarness h1;
    TraceBuilder tb1(32);
    for (int i = 0; i < 64; ++i) {
        tb1.alu(Opcode::FFMA, static_cast<uint8_t>(8 + (i % 8)), 1, 2);
    }
    tb1.exit();
    auto k1 = oneWarpKernel(tb1.take());
    h1.sm->launchCta(k1, 1, 0, 0);
    const Cycle fp = h1.runToIdle();

    SmHarness h2;
    TraceBuilder tb2(32);
    for (int i = 0; i < 64; ++i) {
        tb2.alu(Opcode::MUFU_SIN, static_cast<uint8_t>(8 + (i % 8)), 1);
    }
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    const Cycle sfu = h2.runToIdle();

    EXPECT_GT(sfu, fp * 2);
}

TEST(SmTest, LoadMissRoundTripAndL1Hit)
{
    SmHarness h(/*mem_delay=*/200);
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);  // depends on the load
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle first = h.runToIdle();
    EXPECT_GT(first, 200u);  // paid the fabric latency
    EXPECT_EQ(h.fabric.submissions(), 1u);
    EXPECT_EQ(h.stats.stream(0).l1Accesses, 1u);
    EXPECT_EQ(h.stats.stream(0).l1Hits, 0u);

    // Second CTA loads the same line: an L1 hit, no fabric traffic.
    auto k2 = oneWarpKernel([&] {
        TraceBuilder t(32);
        t.memUniform(Opcode::LDG, 4, 0x1000, 4, DataClass::Compute);
        t.alu(Opcode::FFMA, 5, 4, 4);
        t.exit();
        return t.take();
    }());
    h.sm->launchCta(k2, 2, 0, h.now);
    const Cycle second = h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 1u);
    EXPECT_EQ(h.stats.stream(0).l1Hits, 1u);
    EXPECT_LT(second, first);
}

TEST(SmTest, TexCountsAsTextureAccess)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::TEX, 4, 0x8000, 4, 4, DataClass::Texture);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.stats.stream(0).l1TexAccesses, 1u);
}

TEST(SmTest, StoresAreFireAndForget)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::STG, 4, 0x2000, 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle cycles = h.runToIdle();
    EXPECT_LT(cycles, 50u);  // no latency dependence on the store
    EXPECT_EQ(h.fabric.writes(), 1u);
}

TEST(SmTest, CoalescedLoadProducesOneRequest)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, 0x4000, 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 1u);
}

TEST(SmTest, UncoalescedLoadProducesManyRequests)
{
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDG, 4, 0x40000, kLineBytes, 4,
                  DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.fabric.submissions(), 32u);
    EXPECT_EQ(h.stats.stream(0).l1Accesses, 32u);
}

TEST(SmTest, SharedMemoryConflictsAreCounted)
{
    // All lanes hit the same bank with distinct words: 32-way conflict.
    SmHarness h;
    TraceBuilder tb(32);
    tb.memStrided(Opcode::LDS, 4, 0, 32 * 4, 4, DataClass::Compute);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    h.sm->launchCta(k, 1, 0, 0);
    h.runToIdle();
    EXPECT_EQ(h.stats.stream(0).smemAccesses, 1u);
    EXPECT_EQ(h.stats.stream(0).smemBankConflicts, 31u);

    // Lane-linear words are conflict-free.
    SmHarness h2;
    TraceBuilder tb2(32);
    tb2.memStrided(Opcode::LDS, 4, 0, 4, 4, DataClass::Compute);
    tb2.exit();
    auto k2 = oneWarpKernel(tb2.take());
    h2.sm->launchCta(k2, 1, 0, 0);
    h2.runToIdle();
    EXPECT_EQ(h2.stats.stream(0).smemBankConflicts, 0u);
}

TEST(SmTest, BarrierSynchronizesWarps)
{
    SmHarness h(/*mem_delay=*/500);
    // Warp 0: slow load then barrier. Warp 1: barrier then ALU.
    CtaTrace cta;
    {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0x9000, 4, DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.bar();
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    {
        TraceBuilder tb(32);
        tb.bar();
        tb.alu(Opcode::FFMA, 5, 1, 2);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    KernelInfo k;
    k.name = "barrier";
    k.grid = {1, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    h.sm->launchCta(k, 1, 0, 0);
    const Cycle cycles = h.runToIdle();
    // Warp 1 must have waited for warp 0's 500-cycle load.
    EXPECT_GT(cycles, 500u);
    EXPECT_TRUE(h.sm->idle());
}

/** A CTA whose warps park on a long-latency load (stays resident). */
CtaTrace
parkedCta(uint32_t warps)
{
    CtaTrace cta;
    for (uint32_t w = 0; w < warps; ++w) {
        TraceBuilder tb(32);
        tb.memUniform(Opcode::LDG, 4, 0xB000 + 0x40 * w, 4,
                      DataClass::Compute);
        tb.alu(Opcode::FFMA, 5, 4, 4);
        tb.exit();
        cta.warps.push_back(tb.take());
    }
    return cta;
}

TEST(SmTest, ResourceAccounting)
{
    SmHarness h(/*mem_delay=*/50000);
    KernelInfo big;
    big.name = "big";
    big.grid = {4, 1, 1};
    big.cta = {1024, 1, 1};
    big.regsPerThread = 64;  // 64K regs per CTA: only one fits
    big.source = std::make_shared<VectorCtaSource>(std::vector<CtaTrace>(
        4, parkedCta(32)));
    ASSERT_TRUE(h.sm->canAccept(big));
    h.sm->launchCta(big, 1, 0, 0);
    for (int i = 0; i < 10; ++i) {
        ++h.now;
        stepSm(*h.sm, h.now);
    }
    // 1024 threads * 64 regs = 65536 = all registers: no second CTA.
    EXPECT_FALSE(h.sm->canAccept(big));
    h.runToIdle(200000);
    EXPECT_TRUE(h.sm->canAccept(big));  // resources freed at CTA commit
}

TEST(SmTest, QuotaRestrictsStream)
{
    SmHarness h(/*mem_delay=*/50000);
    SmQuota q;
    q.maxThreads = 128;
    h.sm->setQuota(0, q);
    KernelInfo k;
    k.name = "quota";
    k.grid = {2, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    k.source = std::make_shared<VectorCtaSource>(std::vector<CtaTrace>(
        2, parkedCta(4)));
    ASSERT_TRUE(h.sm->canAccept(k));
    h.sm->launchCta(k, 1, 0, 0);
    for (int i = 0; i < 10; ++i) {
        ++h.now;
        stepSm(*h.sm, h.now);
    }
    EXPECT_FALSE(h.sm->canAccept(k));  // quota, not capacity, blocks
    h.sm->clearQuotas();
    EXPECT_TRUE(h.sm->canAccept(k));
    h.runToIdle(200000);
}

TEST(SmTest, CommittedCtasLandOnDoneList)
{
    using Done = std::pair<StreamId, KernelId>;
    SmHarness h;
    TraceBuilder tb(32);
    tb.alu(Opcode::MOV, 1).exit();
    auto k = oneWarpKernel(tb.take());
    k.stream = 3;
    h.sm->launchCta(k, 1, 0, 0);
    EXPECT_TRUE(h.sm->ctaDones().empty());
    h.runToIdle();
    EXPECT_EQ(h.sm->ctaDones(), std::vector<Done>{Done(3, 1)});
    EXPECT_EQ(h.sm->activeWarps(), 0u);
    EXPECT_EQ(h.sm->activeCtas(), 0u);

    // A CTA whose only warp has an empty trace commits inside launchCta,
    // onto the same list after the earlier commit.
    auto empty = oneWarpKernel(WarpTrace{});
    empty.stream = 5;
    h.sm->launchCta(empty, 2, 0, h.now);
    EXPECT_EQ(h.sm->ctaDones(),
              (std::vector<Done>{Done(3, 1), Done(5, 2)}));
    EXPECT_EQ(h.sm->activeCtas(), 0u);
    h.sm->clearCtaDones();
    EXPECT_TRUE(h.sm->ctaDones().empty());
}

TEST(SmTest, PerStreamOccupancyTracked)
{
    SmHarness h(/*mem_delay=*/10000);
    // A warp parked on a long load keeps the CTA resident.
    TraceBuilder tb(32);
    tb.memUniform(Opcode::LDG, 4, 0xA000, 4, DataClass::Compute);
    tb.alu(Opcode::FFMA, 5, 4, 4);
    tb.exit();
    auto k = oneWarpKernel(tb.take());
    k.stream = 7;
    h.sm->launchCta(k, 1, 0, 0);
    for (int i = 0; i < 50; ++i) {
        ++h.now;
        stepSm(*h.sm, h.now);
    }
    EXPECT_EQ(h.sm->activeWarpsOf(7), 1u);
    EXPECT_EQ(h.sm->activeWarpsOf(3), 0u);
    EXPECT_EQ(h.sm->usedThreadsOf(7), 32u);
    EXPECT_GT(h.sm->issuedInstrsOf(7), 0u);
    h.runToIdle(20000);
}

} // namespace
} // namespace crisp
