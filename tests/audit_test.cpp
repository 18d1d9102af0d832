#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/wake_calendar.hpp"
#include "core/sm.hpp"
#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "integrity/fault_injector.hpp"
#include "isa/trace_builder.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"
#include "sm_step.hpp"

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

void
enqueueVio(Gpu &gpu, StreamId stream, AddressSpace &heap)
{
    for (const KernelInfo &k : buildVio(heap, 1, 160, 120)) {
        gpu.enqueueKernel(stream, k);
    }
}

// ---------------------------------------------------------------------
// The audit holds on real machines: a concurrent graphics + compute run
// checked at EVERY cycle boundary completes with zero violations. This
// is the strongest form of the acceptance criterion (cadence 1 leaves
// no window for a counted-on-one-side-only request to hide in).
// ---------------------------------------------------------------------
TEST(AuditTest, CleanConcurrentRunPassesAtCadenceOne)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId gfx = gpu.createStream("gfx");
    const StreamId cmp = gpu.createStream("compute");
    submitFrame(gpu, gfx, smallFrame(heap));
    enqueueVio(gpu, cmp, heap);

    integrity::RunOptions opts;
    opts.auditInterval = 1;
    const auto r = gpu.run(100'000'000ull, opts);

    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());
}

// ---------------------------------------------------------------------
// A seeded dropped fill breaks the dramReads == fills + pendingFills
// identity forever, so the audit alone (integrity checkers disabled)
// must stop the run with a diagnosable counter-fill-pairing report.
// ---------------------------------------------------------------------
TEST(AuditTest, DroppedFillTripsFillPairing)
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
    opts.checkInterval = 0; // watchdog and integrity checkers off
    opts.auditInterval = 256;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_EQ(r.hang->reason,
              "invariant violation: counter-fill-pairing");
    ASSERT_FALSE(r.hang->violations.empty());
    for (const auto &v : r.hang->violations) {
        EXPECT_EQ(v.check, "counter-fill-pairing") << v.detail;
    }

    // Detected at the first audit tick after the drop.
    ASSERT_EQ(inj.injections().size(), 1u);
    EXPECT_EQ(inj.injections()[0].kind, "drop-fill");
    EXPECT_LE(r.hang->detectedAt,
              inj.injections()[0].cycle + opts.auditInterval);

    // The report renders with enough detail to act on.
    const std::string text = r.hang->render();
    EXPECT_NE(text.find("CRISP integrity report"), std::string::npos);
    EXPECT_NE(text.find("counter-fill-pairing"), std::string::npos);
    EXPECT_NE(text.find("dramReads"), std::string::npos);
}

// ---------------------------------------------------------------------
// The identity the L2 fill double-count broke: on a single-stream run
// the bank-side hit rate and the stream-side hit rate are the same
// number (before the fix every DRAM fill added a phantom access + hit
// to the bank counters only).
// ---------------------------------------------------------------------
TEST(AuditTest, SingleStreamBankAndStreamHitRatesAgree)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    integrity::RunOptions opts;
    opts.auditInterval = 1024;
    const auto r = gpu.run(100'000'000ull, opts);
    ASSERT_TRUE(r.completed);

    const StreamStats &st = gpu.stats().stream(s);
    ASSERT_GT(st.l2Accesses, 0u);
    EXPECT_EQ(gpu.l2().accesses(), st.l2Accesses);
    EXPECT_EQ(gpu.l2().hits(), st.l2Hits);
    EXPECT_DOUBLE_EQ(gpu.l2().hitRate(), st.l2HitRate());

    // And the audited identities hold on the final state too.
    std::vector<integrity::InvariantViolation> out;
    audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), r.cycles, out);
    for (const auto &v : out) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
}

// ---------------------------------------------------------------------
// An idle machine trivially satisfies every identity (all counters 0):
// guards against checkers that divide or subtract unsigned values
// without an emptiness guard.
// ---------------------------------------------------------------------
TEST(AuditTest, FreshGpuAuditsClean)
{
    Gpu gpu(smallGpu());
    std::vector<integrity::InvariantViolation> out;
    audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), 0, out);
    EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------
// Parked write-through stores are fabric retries but NOT pending reads:
// pendingFabricReads() feeds the read-conservation identity, where a
// store (which gets no response) would count as a read the L2 never
// answers and fail conservation forever.
// ---------------------------------------------------------------------

/** Fabric that refuses every submission. */
class RefusingFabric : public MemFabricPort
{
  public:
    bool submitToL2(MemRequest, Cycle) override { return false; }
};

TEST(AuditTest, ParkedWritesAreNotPendingReads)
{
    SmConfig cfg;
    RefusingFabric fabric;
    StatsRegistry stats;
    WakeCalendar calendar(1);
    Sm sm(0, cfg, &fabric, &stats, calendar.slot(0));

    // Store-only kernel: every STG is refused and parks in the retry
    // queue.
    TraceBuilder tb(32);
    Addr addr = 0x1000;
    for (uint32_t i = 0; i < 8; ++i) {
        tb.memStrided(Opcode::STG, kNoReg, addr, kLineBytes, 4,
                      DataClass::Compute);
        addr += kLineBytes * 32;
    }
    tb.exit();
    CtaTrace cta;
    cta.warps.push_back(tb.take());
    KernelInfo k;
    k.name = "stores";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 32;
    k.source = std::make_shared<VectorCtaSource>(
        std::vector<CtaTrace>{std::move(cta)});
    sm.launchCta(k, 1, 0, 0);

    Cycle now = 0;
    while (sm.fabricRetryDepth() == 0 && now < 1000) {
        stepSm(sm, ++now);
    }
    ASSERT_GT(sm.fabricRetryDepth(), 0u);
    EXPECT_EQ(sm.pendingFabricReads(), 0u);
}

// ---------------------------------------------------------------------
// And at machine scale: a store-heavy run that parks writes under bank
// backpressure passes the cadence-one audit and the final auditAll —
// the conservation identity stays balanced with stores in the retry
// queues.
// ---------------------------------------------------------------------
TEST(AuditTest, StoreHeavyRunAuditsCleanWithParkedWrites)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");

    ComputeKernelDesc d;
    d.name = "scatter-stores";
    d.ctas = 16;
    d.threadsPerCta = 128;
    d.regsPerThread = 32;
    d.iterations = 4;
    d.loads = {{MemPatternKind::Gather, heap.alloc(1 << 22), 1 << 22, 4,
                2, 128}};
    d.store = {MemPatternKind::Gather, heap.alloc(1 << 22), 1 << 22, 4,
               2, 128};
    d.hasStore = true;
    gpu.enqueueKernel(s, buildComputeKernel(d));

    integrity::RunOptions opts;
    opts.auditInterval = 1;
    const auto r = gpu.run(100'000'000ull, opts);
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value());

    uint64_t max_wait = 0;
    for (const Sm *sm : gpu.constSms()) {
        max_wait = std::max<uint64_t>(max_wait, sm->maxFabricRetryWait());
    }
    // The workload actually exercised the retry path.
    EXPECT_GT(max_wait, 0u);

    std::vector<integrity::InvariantViolation> out;
    audit::auditAll(gpu.stats(), gpu.constSms(), gpu.l2(), r.cycles, out);
    for (const auto &v : out) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
}

} // namespace
} // namespace crisp
