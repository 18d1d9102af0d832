/**
 * @file
 * crisp::mgpu tests: remote round-trip accounting against the hand
 * model, page-migration conservation, fills merged across devices, the
 * shared run loop's protections on a two-GPU machine (idle fast-forward
 * against a ticked reference, watchdog hang reports naming the device,
 * cancellation), the multi-GPU scenario schema (num_gpus, placement,
 * per-stream/per-buffer device fields, Poisson arrivals), the fabric's
 * O(1) in-flight counters against a walk of its links, and the
 * bank-gated fabric retry against the polling retry it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "integrity/fault_injector.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "workloads/compute.hpp"

using namespace crisp;

namespace
{

/** A small streaming-read kernel over @p base. */
KernelInfo
readerKernel(Addr base, uint64_t region_bytes, uint32_t iterations = 4)
{
    ComputeKernelDesc d;
    d.name = "reader";
    d.ctas = 8;
    d.threadsPerCta = 64;
    d.regsPerThread = 32;
    d.iterations = iterations;
    MemPattern p;
    p.kind = MemPatternKind::Streaming;
    p.base = base;
    p.regionBytes = region_bytes;
    p.accessBytes = 16;
    p.count = 2;
    d.loads.push_back(p);
    return buildComputeKernel(d);
}

/** Two small devices so the micro tests stay fast. */
mgpu::MultiGpuConfig
smallDual()
{
    mgpu::MultiGpuConfig cfg = mgpu::MultiGpuConfig::dualRtx3070();
    cfg.gpu.numSms = 4;
    cfg.gpu.finalize();
    return cfg;
}

/** Run a reader on device 1 over a buffer homed on @p home_device.
 *  Audits at cadence 1 — every conservation identity must hold every
 *  cycle, remote traffic in flight included. */
mgpu::MultiGpu::RunResult
runReader(mgpu::MultiGpu &machine, uint32_t home_device,
          uint64_t bytes = 1 << 20)
{
    AddressSpace heap = machine.heapFor(home_device);
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    const StreamId s = dev1.createStream("compute");
    dev1.enqueueKernel(s, readerKernel(base, bytes));
    return machine.run(4'000'000, 1);
}

} // namespace

TEST(MgpuFabric, StaticWindowOwnership)
{
    mgpu::MultiGpu machine(smallDual());
    const mgpu::InterGpuFabric &fabric = machine.fabric();
    EXPECT_EQ(fabric.ownerOf(0), 0u);
    EXPECT_EQ(fabric.ownerOf(machine.windowBase(1)), 1u);
    EXPECT_EQ(fabric.ownerOf(machine.windowBase(1) - 128), 0u);
    // The last device owns everything above its window base.
    EXPECT_EQ(fabric.ownerOf(~0ull), 1u);
}

TEST(MgpuFabric, RemoteRoundTripAccounting)
{
    // Same kernel, local vs remote buffer: the remote run pays at least
    // one extra link traversal on the makespan, and its traffic matches
    // the wire model exactly.
    mgpu::MultiGpu local_machine(smallDual());
    const auto local = runReader(local_machine, 1);
    ASSERT_TRUE(local.completed);
    EXPECT_TRUE(local.violations.empty());
    EXPECT_EQ(local_machine.fabric().requestsAccepted(), 0u);

    mgpu::MultiGpu remote_machine(smallDual());
    const auto remote = runReader(remote_machine, 0);
    ASSERT_TRUE(remote.completed);
    EXPECT_TRUE(remote.violations.empty());

    const mgpu::InterGpuFabric &fabric = remote_machine.fabric();
    const uint64_t reqs = fabric.requestsAccepted();
    ASSERT_GT(reqs, 0u);
    EXPECT_GT(remote.cycles,
              local.cycles + fabric.config().linkLatency);

    // Drained: nothing in flight, every request delivered and answered.
    EXPECT_EQ(fabric.requestsInFlight(), 0u);
    EXPECT_EQ(fabric.responsesInFlight(), 0u);
    EXPECT_EQ(fabric.requestsDelivered(), reqs);
    EXPECT_EQ(fabric.responsesAccepted(), reqs);
    EXPECT_EQ(fabric.responsesDelivered(), reqs);

    // Wire model: a read request is one header, its response a header
    // plus the line payload.
    const mgpu::FabricConfig &fc = fabric.config();
    EXPECT_EQ(fabric.bytesTransferred(),
              reqs * fc.headerBytes + reqs * (fc.headerBytes + 128));

    // Per-stream counters pair with the fabric totals on both sides:
    // device 1's stream counted every remote access and response, and
    // device 0's L2 saw exactly the delivered requests for that stream.
    Gpu &dev1 = remote_machine.device(1);
    const StreamId s = remote_machine.config().streamIdStride;
    EXPECT_EQ(dev1.stats().stream(s).remoteAccesses, reqs);
    EXPECT_EQ(dev1.stats().stream(s).remoteResponses, reqs);
    EXPECT_EQ(remote_machine.device(0).stats().stream(s).l2Accesses, reqs);
}

TEST(MgpuFabric, PageMigrationConservation)
{
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.fabric.migrateAfter = 2;
    mgpu::MultiGpu machine(cfg);

    AddressSpace heap = machine.heapFor(0);
    const uint64_t bytes = 8192;  // Two 4 KiB pages in device 0's window.
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    const StreamId s = dev1.createStream("compute");
    dev1.enqueueKernel(s, readerKernel(base, bytes, 16));
    const auto r = machine.run(4'000'000, 1);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.violations.empty());

    const mgpu::InterGpuFabric &fabric = machine.fabric();
    ASSERT_GT(fabric.pageMigrations(), 0u);
    EXPECT_LE(fabric.pageMigrations(), 2u);
    EXPECT_EQ(fabric.migratedBytes(),
              fabric.pageMigrations() * cfg.fabric.pageBytes);
    // The hot page now belongs to the toucher; the per-stream counter
    // attributes the migrations it triggered.
    EXPECT_EQ(fabric.ownerOf(base), 1u);
    EXPECT_EQ(dev1.stats().stream(s).pageMigrations,
              fabric.pageMigrations());
}

TEST(MgpuFabric, MergedFillAnswersEveryDevice)
{
    // Both devices stream over one buffer homed on device 0. Device 1
    // starts at once; device 0 starts 44 cycles after device 1's first
    // requests can land (one link latency), while those misses still
    // wait on DRAM, so its own misses merge into MSHR entries device 1's
    // requests opened. The fill must answer each target on the device
    // that asked: a target answered on the primary's device instead
    // leaves the asker's L1 MSHR entry waiting forever, which the
    // cadence-1 conservation check reports.
    mgpu::MultiGpu machine(smallDual());
    AddressSpace heap = machine.heapFor(0);
    const uint64_t bytes = 1 << 16;
    const Addr base = heap.alloc(bytes);
    Gpu &dev1 = machine.device(1);
    dev1.enqueueKernel(dev1.createStream("reader"),
                       readerKernel(base, bytes));
    Gpu &dev0 = machine.device(0);
    dev0.enqueueKernelAt(dev0.createStream("reader"),
                         readerKernel(base, bytes),
                         machine.fabric().config().linkLatency + 44);
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    opts.auditInterval = 1;
    const auto r = machine.run(4'000'000, opts);
    ASSERT_TRUE(r.completed)
        << (r.violations.empty() ? "" : r.violations.front().detail);
    // Every remote read came back, and device 0's L2 did merge misses.
    EXPECT_GT(machine.fabric().responsesDelivered(), 0u);
    EXPECT_EQ(machine.fabric().responsesDelivered(),
              machine.fabric().requestsAccepted());
    EXPECT_GT(machine.device(0).l2().mergedAccesses(), 0u);
}

TEST(MgpuFabric, BoundedQueueRefusesThenDrains)
{
    // A one-entry request queue with a slow wire forces refusals; the
    // SMs park and retry, and the run still drains with every identity
    // intact (the cadence-1 audit would catch a lost request).
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.fabric.requestQueueCapacity = 1;
    cfg.fabric.linkBytesPerCycle = 8.0;
    mgpu::MultiGpu machine(cfg);
    const auto r = runReader(machine, 0);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
    EXPECT_EQ(machine.fabric().requestsInFlight(), 0u);
}

namespace
{

scenario::Scenario
gameInference()
{
    scenario::Scenario scn;
    scenario::ScenarioError err;
    EXPECT_TRUE(scenario::loadScenarioFile(
        std::string(CRISP_SCENARIO_DIR) + "/game_inference_mgpu.json", scn,
        err))
        << err.str();
    return scn;
}

/** Every per-stream counter of every device, plus the fabric's. */
std::string
machineDump(const mgpu::MultiGpu &machine)
{
    std::ostringstream os;
    for (uint32_t d = 0; d < machine.numGpus(); ++d) {
        for (const auto &[id, st] :
             machine.device(d).stats().allStreams()) {
            os << d << '/' << id << ':' << st.cycles << ','
               << st.instructions << ',' << st.warpsLaunched << ','
               << st.ctasLaunched << ',' << st.kernelsCompleted << ','
               << st.l1Accesses << ',' << st.l1Hits << ','
               << st.l1MshrMerges << ',' << st.l1TexAccesses << ','
               << st.l2Accesses << ',' << st.l2Hits << ','
               << st.l2MshrMerges << ',' << st.dramReads << ','
               << st.dramWrites << ',' << st.smemAccesses << ','
               << st.smemBankConflicts << ',' << st.remoteAccesses << ','
               << st.remoteResponses << ',' << st.pageMigrations << ','
               << st.firstCycle << ',' << st.lastCycle << '\n';
        }
    }
    const mgpu::InterGpuFabric &f = machine.fabric();
    os << "fabric:" << f.requestsAccepted() << ',' << f.requestsDelivered()
       << ',' << f.responsesAccepted() << ',' << f.responsesDelivered()
       << ',' << f.bytesTransferred() << ',' << f.pageMigrations() << ','
       << f.migratedBytes() << ',' << f.totalBusyCycles() << '\n';
    return os.str();
}

struct PlacementCase
{
    const char *label;
    scenario::Placement placement;
    uint32_t migrateAfter;
};

} // namespace

class MgpuFastForward : public testing::TestWithParam<PlacementCase>
{
};

TEST_P(MgpuFastForward, MatchesTickedReference)
{
    // The run loop jumps over cycles in which no device and no fabric
    // link can do anything; a plain tick() loop visits every one. Both
    // must end on the same cycle with every counter equal.
    auto simulate = [](bool ticked, std::string &dump, uint64_t &jumps) {
        scenario::Scenario scn = gameInference();
        scn.gpu.placement = GetParam().placement;
        mgpu::MultiGpuConfig cfg;
        cfg.numGpus = scn.gpu.numGpus;
        cfg.gpu = scenario::gpuConfigFor(scn);
        cfg.fabric.migrateAfter = GetParam().migrateAfter;
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        scenario::submitScenarioMulti(scn, machine, mat);
        Cycle cycles = 0;
        if (ticked) {
            while (!machine.done()) {
                machine.tick();
            }
            cycles = machine.now();
        } else {
            const auto r = machine.run();
            EXPECT_TRUE(r.completed);
            cycles = r.cycles;
        }
        dump = machineDump(machine);
        jumps = machine.device(0).fastForwardJumps();
        return cycles;
    };
    std::string ticked_dump, jumped_dump;
    uint64_t ticked_jumps = 0, jumps = 0;
    const Cycle ticked = simulate(true, ticked_dump, ticked_jumps);
    const Cycle jumped = simulate(false, jumped_dump, jumps);
    EXPECT_EQ(ticked_jumps, 0u);
    EXPECT_GT(jumps, 0u);
    EXPECT_EQ(jumped, ticked);
    EXPECT_EQ(jumped_dump, ticked_dump);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MgpuFastForward,
    testing::Values(PlacementCase{"split", scenario::Placement::Split, 0},
                    PlacementCase{"colocated",
                                  scenario::Placement::Colocated, 0},
                    PlacementCase{"mig", scenario::Placement::Mig, 0},
                    PlacementCase{"splitMigrate",
                                  scenario::Placement::Split, 4}),
    [](const testing::TestParamInfo<PlacementCase> &info) {
        return std::string(info.param.label);
    });

TEST(MgpuRunLoop, CheckersStayQuietOnRemoteTraffic)
{
    // The watchdog's invariant checkers balance reads across devices and
    // the fabric: a healthy remote-heavy run never trips them.
    mgpu::MultiGpu machine(smallDual());
    AddressSpace heap = machine.heapFor(0);
    const Addr base = heap.alloc(1 << 20);
    Gpu &dev1 = machine.device(1);
    dev1.enqueueKernel(dev1.createStream("compute"),
                       readerKernel(base, 1 << 20));
    integrity::RunOptions opts;
    opts.checkInterval = 16;
    opts.mshrLeakAge = 200;
    opts.auditInterval = 1;
    const auto r = machine.run(4'000'000, opts);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value()) << r.hang->render();
    EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
}

TEST(MgpuRunLoop, WorkSetsStayExactOnRemoteResponses)
{
    // A remote fill comes back through deliverRemoteResponse. With two
    // L1 MSHR entries per SM that response is what unparks an LDST head
    // parked on a full MSHR, so the memory-phase set must take the SM
    // back on this path too; the invariant pass checks it every cycle.
    mgpu::MultiGpuConfig cfg = smallDual();
    cfg.gpu.sm.l1MshrEntries = 2;
    mgpu::MultiGpu machine(cfg);
    AddressSpace heap = machine.heapFor(0);
    const Addr base = heap.alloc(1 << 18);
    Gpu &dev1 = machine.device(1);
    dev1.enqueueKernel(dev1.createStream("compute"),
                       readerKernel(base, 1 << 18));
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    opts.auditInterval = 1;
    const auto r = machine.run(4'000'000, opts);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.hang.has_value()) << r.hang->render();
    EXPECT_GT(machine.fabric().responsesDelivered(), 0u);
}

TEST(MgpuRunLoop, FrozenSmOnDeviceOneIsReported)
{
    mgpu::MultiGpu machine(smallDual());
    AddressSpace heap = machine.heapFor(0);
    const Addr base = heap.alloc(1 << 20);
    Gpu &dev1 = machine.device(1);
    dev1.enqueueKernel(dev1.createStream("compute"),
                       readerKernel(base, 1 << 20, 64));

    integrity::FaultConfig fc;
    fc.freezeSm = 2;
    fc.freezeAtCycle = 500;
    integrity::FaultInjector inj(fc);
    dev1.setFaultInjector(&inj);

    integrity::RunOptions opts;
    opts.checkInterval = 256;
    opts.hangThreshold = 4000;
    const auto r = machine.run(10'000'000, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    EXPECT_NE(r.hang->reason.find("no forward progress"),
              std::string::npos);
    EXPECT_TRUE(r.hang->violations.empty());
    ASSERT_EQ(r.hang->sms.size(), 8u);
    ASSERT_EQ(r.hang->mem.size(), 2u);
    for (const auto &row : r.hang->sms) {
        const bool frozen = row.device == 1 && row.smId == 2;
        EXPECT_EQ(row.issueFrozen, frozen)
            << "gpu " << row.device << " sm " << row.smId;
        if (frozen) {
            EXPECT_GT(row.activeWarps, 0u);
            EXPECT_EQ(row.dominantStall, "frozen");
        }
    }
    EXPECT_NE(r.hang->render().find("(gpu 1)"), std::string::npos);
}

namespace
{

/** Sets a cancel token at a fixed cycle, as a deadline monitor would. */
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

} // namespace

TEST(MgpuRunLoop, CancelStopsAtCycleBoundaryWithCleanAudit)
{
    auto build = [](mgpu::MultiGpu &machine) {
        AddressSpace heap = machine.heapFor(0);
        const Addr base = heap.alloc(1 << 20);
        Gpu &dev1 = machine.device(1);
        dev1.enqueueKernel(dev1.createStream("compute"),
                           readerKernel(base, 1 << 20));
    };
    mgpu::MultiGpu reference(smallDual());
    build(reference);
    const auto full = reference.run(4'000'000);
    ASSERT_TRUE(full.completed);

    mgpu::MultiGpu machine(smallDual());
    build(machine);
    std::atomic<bool> cancel{false};
    CancelAt controller(cancel, 3000);
    machine.device(0).addController(&controller);
    integrity::RunOptions opts;
    opts.cancel = &cancel;
    opts.auditInterval = 1;
    const auto stopped = machine.run(4'000'000, opts);
    EXPECT_TRUE(stopped.cancelled);
    EXPECT_FALSE(stopped.completed);
    EXPECT_EQ(stopped.cycles, 3000u);
    // The final audit ran on the stopped machine and found it clean,
    // with remote traffic still in flight.
    EXPECT_FALSE(stopped.hang.has_value()) << stopped.hang->render();
    EXPECT_TRUE(stopped.violations.empty());
    EXPECT_FALSE(machine.done());

    // Resuming finishes exactly where an uninterrupted run does.
    cancel.store(false);
    const auto resumed = machine.run(4'000'000, opts);
    EXPECT_TRUE(resumed.completed);
    EXPECT_FALSE(resumed.hang.has_value());
    EXPECT_EQ(resumed.cycles, full.cycles);
    EXPECT_EQ(machineDump(machine), machineDump(reference));
}

TEST(MgpuSchedule, PoissonBasesAreSeededAndMonotonic)
{
    scenario::ScheduleNode s;
    s.bursts = 16;
    s.poisson = true;
    s.rateHz = 1000.0;
    s.seed = 42;
    const std::vector<Cycle> a = scenario::burstBases(s, 1000.0);
    const std::vector<Cycle> b = scenario::burstBases(s, 1000.0);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 16u);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_GE(a[i], a[i - 1]);
    }
    // The mean gap should be around core_clock/rate = 1e6 cycles; with
    // 16 samples allow a generous band.
    EXPECT_GT(a.back(), 2'000'000u);
    EXPECT_LT(a.back(), 100'000'000u);

    s.seed = 43;
    EXPECT_NE(scenario::burstBases(s, 1000.0), a);

    s.poisson = false;
    s.period = 500;
    const std::vector<Cycle> periodic = scenario::burstBases(s, 1000.0);
    for (size_t i = 0; i < periodic.size(); ++i) {
        EXPECT_EQ(periodic[i], i * 500);
    }
}

namespace
{

std::string
scenarioText(const std::string &gpu, const std::string &compute_extra,
             const std::string &schedule)
{
    return R"({
        "crisp_scenario": 1,
        "name": "t",
        "gpu": {)" + gpu + R"(},
        "compute": {
            "buffers": [{ "name": "b", "bytes": 65536)" + compute_extra +
           R"( }],
            "kernels": [{ "name": "k",
                          "loads": [{ "buffer": "b" }] }])" + schedule +
           R"(
        }
    })";
}

} // namespace

TEST(MgpuScenario, LoaderCoordinatesTable)
{
    struct Case
    {
        const char *label;
        std::string text;
        const char *needle;
    };
    const Case cases[] = {
        {"num_gpus zero", scenarioText(R"("num_gpus": 0)", "", ""),
         "num_gpus must be in [1, 8]"},
        {"num_gpus nine", scenarioText(R"("num_gpus": 9)", "", ""),
         "num_gpus must be in [1, 8]"},
        {"placement single-gpu",
         scenarioText(R"("placement": "split")", "", ""),
         "\"placement\" needs num_gpus > 1"},
        {"placement unknown",
         scenarioText(R"("num_gpus": 2, "placement": "sideways")", "", ""),
         "placement must be one of split|colocated|mig"},
        {"buffer device single-gpu",
         scenarioText("", R"(, "device": 0)", ""),
         "\"device\" needs gpu.num_gpus > 1"},
        {"buffer device out of range",
         scenarioText(R"("num_gpus": 2)", R"(, "device": 2)", ""),
         "device must be in [0, 1]"},
        {"arrivals with period",
         scenarioText(R"("num_gpus": 2)", "",
                      R"(,
            "schedule": { "bursts": 2, "period": 1000,
                          "arrivals": { "kind": "poisson",
                                        "rate_hz": 100 } })"),
         "\"arrivals\" and \"period\" are mutually exclusive"},
        {"arrivals missing rate",
         scenarioText("", "",
                      R"(,
            "schedule": { "bursts": 2,
                          "arrivals": { "kind": "poisson" } })"),
         "\"arrivals\" needs a \"rate_hz\""},
        {"arrivals unknown kind",
         scenarioText("", "",
                      R"(,
            "schedule": { "bursts": 2,
                          "arrivals": { "kind": "uniform",
                                        "rate_hz": 100 } })"),
         "kind must be one of poisson"},
    };
    for (const Case &c : cases) {
        scenario::Scenario scn;
        scenario::ScenarioError err;
        ASSERT_FALSE(scenario::loadScenarioText(c.text, "t.json", scn, err))
            << c.label;
        EXPECT_NE(err.message.find(c.needle), std::string::npos)
            << c.label << ": got \"" << err.message << "\"";
        EXPECT_GT(err.line, 0u) << c.label;
        EXPECT_GT(err.col, 0u) << c.label;
    }
}

TEST(MgpuScenario, PlacementResolvesDevices)
{
    const auto parse = [](const std::string &gpu,
                          const std::string &extra) {
        scenario::Scenario scn;
        scenario::ScenarioError err;
        const std::string text = scenarioText(gpu, extra, "");
        EXPECT_TRUE(scenario::loadScenarioText(text, "t.json", scn, err))
            << err.str();
        return scn;
    };

    const scenario::Scenario split =
        parse(R"("num_gpus": 2, "placement": "split")", "");
    EXPECT_EQ(split.gpu.placement, scenario::Placement::Split);
    mgpu::MultiGpuConfig cfg = smallDual();
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(split, machine, mat);
        // Compute-only split scenario: the compute stream owns device 1.
        EXPECT_EQ(sr.cmpDevice, 1u);
        EXPECT_EQ(sr.gfx, kInvalidStream);
    }
    const scenario::Scenario colo =
        parse(R"("num_gpus": 2, "placement": "colocated")", "");
    EXPECT_EQ(colo.gpu.placement, scenario::Placement::Colocated);
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(colo, machine, mat);
        EXPECT_EQ(sr.cmpDevice, 0u);
    }
    // A per-buffer device homes the allocation in that window even when
    // the stream runs elsewhere.
    const scenario::Scenario homed =
        parse(R"("num_gpus": 2)", R"(, "device": 0)");
    {
        mgpu::MultiGpu machine(cfg);
        scenario::Materialized mat;
        const auto sr = scenario::submitScenarioMulti(homed, machine, mat);
        EXPECT_EQ(sr.cmpDevice, 1u);
        const auto r = machine.run(4'000'000, 1);
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.violations.empty());
        EXPECT_GT(machine.fabric().requestsAccepted(), 0u);
    }
}

// ---------------------------------------------------------------------
// The fabric's in-flight counters and the bank-gated retry, each pinned
// against the form it replaced: the accepted-minus-delivered counters
// against a walk of every link, and the gated retry against the polling
// retry that re-offered every refused head every cycle.
// ---------------------------------------------------------------------

namespace
{

/** A random mix of gather loads and streaming stores over
 *  [base, base + bytes): lines land on every bank. */
KernelInfo
randomTrafficKernel(Rng &rng, Addr base, uint64_t bytes, const char *name)
{
    ComputeKernelDesc d;
    d.name = name;
    d.ctas = 2 + static_cast<uint32_t>(rng.nextBelow(6));
    d.threadsPerCta = 64 * (1 + static_cast<uint32_t>(rng.nextBelow(2)));
    d.regsPerThread = 32;
    d.iterations = 1 + static_cast<uint32_t>(rng.nextBelow(3));
    d.fp32Ops = static_cast<uint32_t>(rng.nextBelow(4));
    MemPattern gather;
    gather.kind = MemPatternKind::Gather;
    gather.base = base;
    gather.regionBytes = bytes;
    gather.count = 1 + static_cast<uint32_t>(rng.nextBelow(2));
    d.loads.push_back(gather);
    if (rng.nextBelow(2) == 0) {
        d.hasStore = true;
        d.store.kind = MemPatternKind::Streaming;
        d.store.base = base + bytes / 2;
        d.store.regionBytes = bytes / 2;
    }
    return buildComputeKernel(d);
}

TEST(MgpuFabric, InFlightCountersMatchTheLinkWalk)
{
    // Two devices each run random traffic over both windows through
    // short request queues on a slow wire (bounded-queue refusals), with
    // pages migrating after two touches. After every cycle the O(1)
    // counters must equal what a walk of the links finds, and the idle
    // answer must agree with both.
    for (uint32_t seed = 1; seed <= 3; ++seed) {
        mgpu::MultiGpuConfig cfg = smallDual();
        cfg.fabric.requestQueueCapacity = 2;
        cfg.fabric.linkBytesPerCycle = 16.0;
        cfg.fabric.linkLatency = 40;
        cfg.fabric.migrateAfter = 2;
        mgpu::MultiGpu machine(cfg);
        Rng rng(seed);
        for (uint32_t d = 0; d < 2; ++d) {
            Gpu &dev = machine.device(d);
            const StreamId s = dev.createStream("traffic");
            for (uint32_t k = 0; k < 3; ++k) {
                AddressSpace heap = machine.heapFor(rng.nextBelow(2));
                const uint64_t bytes = 16384 << rng.nextBelow(3);
                dev.enqueueKernel(s, randomTrafficKernel(
                                         rng, heap.alloc(bytes), bytes,
                                         "traffic"));
            }
        }
        const mgpu::InterGpuFabric &fabric = machine.fabric();
        SmallFlatMap<StreamId, uint64_t> walked;
        std::vector<integrity::InvariantViolation> violations;
        bool ever_busy = false;
        while (!machine.done() && machine.now() < 2'000'000) {
            machine.tick();
            walked.clear();
            fabric.countInFlightByStream(walked);
            uint64_t requests = 0;
            for (const auto &[stream, n] : walked) {
                requests += n;
            }
            ASSERT_EQ(fabric.requestsInFlight(), requests)
                << "seed " << seed << " cycle " << machine.now();
            ASSERT_EQ(fabric.idle(),
                      requests == 0 && fabric.readsInFlight() == 0)
                << "seed " << seed << " cycle " << machine.now();
            ASSERT_EQ(fabric.idle(),
                      fabric.nextEventCycle(machine.now()) == kNeverCycle);
            ever_busy |= !fabric.idle();
            // The audit's side: accepted == delivered + the link walk,
            // requests and responses both.
            fabric.auditCounters(machine.mergedStats(), machine.now(),
                                 violations);
            ASSERT_TRUE(violations.empty())
                << "seed " << seed << ": " << violations.front().detail;
        }
        ASSERT_TRUE(machine.done())
            << "seed " << seed << " cycle " << machine.now();
        EXPECT_TRUE(ever_busy);
        EXPECT_GT(fabric.pageMigrations(), 0u) << "seed " << seed;
        EXPECT_TRUE(fabric.idle());
        EXPECT_EQ(fabric.responsesInFlight(), 0u);
    }
}

/** One SM grant: a request the fabric port accepted. */
struct Grant
{
    Cycle at = 0;
    uint32_t device = 0;
    uint32_t sm = 0;
    Addr line = 0;
    bool write = false;
    bool operator==(const Grant &) const = default;
};

/** A Gpu that logs every request its SMs get accepted, in order. */
class LoggingGpu : public Gpu
{
  public:
    LoggingGpu(const GpuConfig &cfg, std::vector<Grant> *log)
        : Gpu(cfg), log_(log)
    {
    }

    bool
    submitToL2(MemRequest req, Cycle now) override
    {
        const Grant g{now, deviceId(), req.smId, req.line, req.write};
        if (!Gpu::submitToL2(std::move(req), now)) {
            return false;
        }
        log_->push_back(g);
        return true;
    }

  private:
    std::vector<Grant> *log_;
};

/** The retry before gating: every refusal's gate is open, so each
 *  refused head is re-offered every cycle. */
class PollingGpu : public LoggingGpu
{
  public:
    using LoggingGpu::LoggingGpu;

    RetryGate
    refusalGate(const MemRequest &req) const override
    {
        (void)req;
        return {};
    }
};

/** A gate that misses its bank's pops: a local refusal's gate reads a
 *  full flag that never clears, so only a reroute opens it. */
class StuckGateGpu : public LoggingGpu
{
  public:
    using LoggingGpu::LoggingGpu;

    RetryGate
    refusalGate(const MemRequest &req) const override
    {
        RetryGate gate = LoggingGpu::refusalGate(req);
        if (gate.full != nullptr) {
            gate.full = &kAlwaysFull;
        }
        return gate;
    }

  private:
    static constexpr uint8_t kAlwaysFull = 1;
};

/** Re-partitions its GPU every @p period cycles, cycling MPS, an even
 *  MiG split, an uneven one and a lone mask change of stream @p a: bank
 *  masks change while requests are parked on full banks of the old
 *  mapping. */
class Repartitioner : public GpuController
{
  public:
    Repartitioner(Cycle period, StreamId a) : period_(period), a_(a) {}

    void
    onCycle(Gpu &gpu, Cycle now) override
    {
        if (now % period_ != 0) {
            return;
        }
        PartitionConfig p;
        switch (++changes_ % 4) {
          case 0: p.policy = PartitionPolicy::Mps; break;
          case 1: p.policy = PartitionPolicy::Mig; break;
          case 2:
            p.policy = PartitionPolicy::Mig;
            p.share[a_] = 0.25;
            break;
          default:
            // One stream's mask alone, straight on the L2.
            gpu.l2().setStreamBankMask(a_, 0x6);
            return;
        }
        gpu.setPartition(p);
    }

  private:
    Cycle period_;
    StreamId a_;
    uint32_t changes_ = 0;
};

struct RetryRun
{
    std::vector<Grant> grants;
    Cycle cycles = 0;
    bool completed = false;
    std::vector<Gpu::WorkCounts> counts;
    std::vector<std::string> violations;
    uint64_t remoteRequests = 0;
    uint64_t migrations = 0;
};

/** A small device with few, shallow L2 bank queues: they fill often. */
GpuConfig
fullBanksGpu()
{
    GpuConfig cfg;
    cfg.numSms = 6;
    cfg.l2.numBanks = 4;
    cfg.l2.bankQueueCapacity = 2;
    cfg.l2.bankGeometry = {64 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

/**
 * Random traffic on @p devices devices of type @p Device, run to drain
 * with every invariant checker (the retry-gate identity included) and
 * the counter audit at cadence 1. Each device has two streams and a
 * controller that keeps moving its bank masks (Repartitioner). With two
 * devices the streams also read the peer's window over a fabric with
 * four-entry request queues (remote heads) and migrate pages after two
 * touches.
 */
template <typename Device>
RetryRun
runRetryTraffic(uint64_t seed, uint32_t devices)
{
    RetryRun run;
    const GpuConfig cfg = fullBanksGpu();
    mgpu::FabricConfig fcfg;
    fcfg.requestQueueCapacity = 4;
    fcfg.linkLatency = 30;
    fcfg.linkBytesPerCycle = 32.0;
    fcfg.migrateAfter = 2;
    const Addr window = 1ull << 34;
    mgpu::InterGpuFabric fabric(fcfg, std::max(devices, 2u), window);
    std::vector<std::unique_ptr<Device>> gpus;
    std::vector<std::unique_ptr<Repartitioner>> controllers;
    std::vector<Gpu *> list;
    Rng rng(seed);
    for (uint32_t d = 0; d < devices; ++d) {
        gpus.push_back(std::make_unique<Device>(cfg, &run.grants));
        Device &gpu = *gpus.back();
        gpu.setDeviceId(d);
        gpu.setStreamIdBase(d * 32);
        if (devices > 1) {
            gpu.setRemotePort(&fabric);
            fabric.attachDevice(d, &gpu);
        }
        list.push_back(&gpu);
        const StreamId a = gpu.createStream("a");
        const StreamId b = gpu.createStream("b");
        gpu.setPartition({PartitionPolicy::Mps, {}, kInvalidStream});
        controllers.push_back(
            std::make_unique<Repartitioner>(40 + rng.nextBelow(80), a));
        gpu.addController(controllers.back().get());
        for (StreamId s : {a, b}) {
            for (uint32_t k = 0; k < 3; ++k) {
                // Four regions per window, shared by both devices: pages
                // their owner also reads migrate away under it.
                const uint32_t home = static_cast<uint32_t>(
                    rng.nextBelow(devices));
                AddressSpace heap(home * window + 0x1000'0000ull +
                                  (rng.nextBelow(4) << 15));
                const uint64_t bytes = 8192 << rng.nextBelow(3);
                gpu.enqueueKernel(s, randomTrafficKernel(
                                         rng, heap.alloc(bytes), bytes,
                                         "traffic"));
            }
        }
    }
    integrity::RunOptions opts;
    opts.checkInterval = 1;
    opts.auditInterval = 1;
    const Gpu::RunResult r =
        Machine(list, devices > 1 ? &fabric : nullptr).run(2'000'000, opts);
    run.cycles = r.cycles;
    run.completed = r.completed;
    if (r.hang) {
        for (const auto &v : r.hang->violations) {
            run.violations.push_back(v.check + ": " + v.detail);
        }
    }
    for (const auto &gpu : gpus) {
        run.counts.push_back(gpu->workCounts());
    }
    run.remoteRequests = fabric.requestsAccepted();
    run.migrations = fabric.pageMigrations();
    return run;
}

void
expectGatedMatchesPolling(uint64_t seed, uint32_t devices)
{
    const RetryRun polling = runRetryTraffic<PollingGpu>(seed, devices);
    const RetryRun gated = runRetryTraffic<LoggingGpu>(seed, devices);
    for (const RetryRun *run : {&polling, &gated}) {
        ASSERT_TRUE(run->completed)
            << (run == &gated ? "gated" : "polling") << ", seed " << seed
            << ", cycle " << run->cycles << ": "
            << (run->violations.empty() ? "" : run->violations.front());
    }
    EXPECT_EQ(gated.cycles, polling.cycles) << "seed " << seed;
    ASSERT_EQ(gated.grants.size(), polling.grants.size()) << "seed " << seed;
    for (size_t i = 0; i < gated.grants.size(); ++i) {
        ASSERT_EQ(gated.grants[i], polling.grants[i])
            << "seed " << seed << ": grant " << i << " at cycle "
            << polling.grants[i].at << " differs";
    }
    uint64_t skips = 0;
    for (uint32_t d = 0; d < devices; ++d) {
        const Gpu::WorkCounts &g = gated.counts[d];
        const Gpu::WorkCounts &p = polling.counts[d];
        // A skipped re-offer stands for exactly one refused re-offer of
        // the polling retry: the grants above are the same, so every
        // re-offer the gate spared was a refusal.
        EXPECT_EQ(p.retrySkips, 0u);
        EXPECT_EQ(g.retryOffers + g.retrySkips, p.retryOffers);
        EXPECT_EQ(g.retryRefusals + g.retrySkips, p.retryRefusals);
        EXPECT_EQ(g.ticks, p.ticks);
        EXPECT_EQ(g.smSteps, p.smSteps);
        skips += g.retrySkips;
    }
    EXPECT_GT(skips, 0u) << "seed " << seed << ": no gate ever closed";
    EXPECT_EQ(gated.remoteRequests, polling.remoteRequests);
    EXPECT_EQ(gated.migrations, polling.migrations);
    if (devices > 1) {
        EXPECT_GT(gated.remoteRequests, 0u) << "seed " << seed;
        EXPECT_GT(gated.migrations, 0u) << "seed " << seed;
    }
}

} // namespace

TEST(RetryGate, FullBanksAndMigMaskChangesMatchThePollingRetry)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        expectGatedMatchesPolling(seed, 1);
    }
}

TEST(RetryGate, RemoteHeadsAndMigrationMatchThePollingRetry)
{
    for (uint64_t seed = 11; seed <= 13; ++seed) {
        expectGatedMatchesPolling(seed, 2);
    }
}

TEST(RetryGate, AGateStillClosedAfterItsBankPoppedIsReported)
{
    // The retry-gate identity is what makes a skip safe: a closed gate's
    // bank queue is full. A gate that stays closed after its bank popped
    // would skip a re-offer that could be accepted, and the check at
    // cadence 1 must stop the run on it.
    const RetryRun run = runRetryTraffic<StuckGateGpu>(1, 1);
    EXPECT_FALSE(run.completed);
    ASSERT_FALSE(run.violations.empty());
    EXPECT_EQ(run.violations.front().rfind("retry-gate: ", 0), 0u)
        << run.violations.front();
}
