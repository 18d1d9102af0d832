/**
 * @file
 * crisp::mgpu tests: remote round-trip accounting against the hand
 * model, page-migration conservation, the shared run loop's
 * protections on a two-GPU machine (idle fast-forward against a ticked reference, watchdog hang
 * reports naming the device, cancellation), and the multi-GPU scenario
 * schema (num_gpus, placement, per-stream/per-buffer device fields,
 * Poisson arrivals).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

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
