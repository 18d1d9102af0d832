#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "graphics/mesh.hpp"
#include "graphics/pipeline.hpp"
#include "integrity/report.hpp"
#include "partition/tap.hpp"
#include "partition/warped_slicer.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp
{
namespace
{

using scenario::Scenario;
using scenario::ScenarioError;

std::string
scenarioPath(const char *name)
{
    return std::string(CRISP_SCENARIO_DIR) + "/" + name;
}

std::string
readAll(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

Scenario
loadTextOrDie(const std::string &text)
{
    Scenario sc;
    ScenarioError err;
    EXPECT_TRUE(scenario::loadScenarioText(text, "mem", sc, err))
        << err.str();
    return sc;
}

Scenario
loadFileOrDie(const char *name)
{
    Scenario sc;
    ScenarioError err;
    EXPECT_TRUE(scenario::loadScenarioFile(scenarioPath(name), sc, err))
        << err.str();
    return sc;
}

void
expectStreamStatsIdentical(const StreamStats &a, const StreamStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.warpsLaunched, b.warpsLaunched);
    EXPECT_EQ(a.ctasLaunched, b.ctasLaunched);
    EXPECT_EQ(a.kernelsCompleted, b.kernelsCompleted);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1MshrMerges, b.l1MshrMerges);
    EXPECT_EQ(a.l1TexAccesses, b.l1TexAccesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2MshrMerges, b.l2MshrMerges);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.smemAccesses, b.smemAccesses);
    EXPECT_EQ(a.smemBankConflicts, b.smemBankConflicts);
    EXPECT_EQ(a.firstCycle, b.firstCycle);
    EXPECT_EQ(a.lastCycle, b.lastCycle);
}

// --- Loader ----------------------------------------------------------------

TEST(ScenarioLoader, MinimalComputeScenarioParses)
{
    const Scenario sc = loadTextOrDie(R"({
        "crisp_scenario": 1,
        "name": "mini",
        "compute": { "preset": "VIO", "frames": 2 }
    })");
    EXPECT_EQ(sc.name, "mini");
    EXPECT_FALSE(sc.graphics.present);
    ASSERT_TRUE(sc.compute.present);
    EXPECT_EQ(sc.compute.preset, "VIO");
    EXPECT_EQ(sc.compute.frames, 2u);
    EXPECT_EQ(sc.gpu.preset, "rtx3070");
}

TEST(ScenarioLoader, UnknownKeyCarriesFileLineCol)
{
    const std::string text = "{\n"
                             "  \"crisp_scenario\": 1,\n"
                             "  \"name\": \"x\",\n"
                             "  \"wat\": 3\n"
                             "}\n";
    Scenario sc;
    ScenarioError err;
    ASSERT_FALSE(scenario::loadScenarioText(text, "mem.json", sc, err));
    EXPECT_EQ(err.file, "mem.json");
    EXPECT_EQ(err.line, 4u);
    EXPECT_GT(err.col, 0u);
    EXPECT_NE(err.message.find("unknown key \"wat\""), std::string::npos)
        << err.message;
    EXPECT_EQ(err.str().find("mem.json:4:"), 0u) << err.str();
}

TEST(ScenarioLoader, CommentsAreStrippedWithOffsetsPreserved)
{
    // The bad value sits on line 5 of the original text; the two comment
    // lines above it must not shift the reported coordinates.
    const std::string text = "// a header comment\n"
                             "{\n"
                             "  \"crisp_scenario\": 1, // trailing\n"
                             "  \"name\": \"x\",\n"
                             "  \"gpu\": { \"preset\": \"voodoo2\" }\n"
                             "}\n";
    Scenario sc;
    ScenarioError err;
    ASSERT_FALSE(scenario::loadScenarioText(text, "mem", sc, err));
    EXPECT_EQ(err.line, 5u);
}

TEST(ScenarioLoader, RejectsWithStructuredDiagnostics)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {R"({"name":"x","compute":{"preset":"VIO"}})",
         "crisp_scenario"},
        {R"({"crisp_scenario":1,"compute":{"preset":"VIO"}})",
         "non-empty \"name\""},
        {R"({"crisp_scenario":1,"name":"x"})",
         "graphics"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"preset":"VIO",
             "kernels":[]}})",
         "\"preset\" excludes"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"k","threads_per_cta":100}]}})",
         "multiple of 32"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a"},{"name":"b","after":"a","at":5}]}})",
         "mutually"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a","delay":10}]}})",
         "\"delay\" needs an \"after\""},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a"}],"schedule":{"bursts":4}}})",
         "non-zero \"period\""},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a","loads":[{"buffer":"frame_color"}]}]}})",
         "frame_color needs a"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a","store":{"buffer":"ghost"}}]}})",
         "store references unknown buffer"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a"},{"name":"b","after":"c"}]}})",
         "not an earlier"},
        {R"({"crisp_scenario":1,"name":"x","compute":{"kernels":[
             {"name":"a","at":100},{"name":"b","at":50}]}})",
         "non-decreasing"},
        {R"({"crisp_scenario":1,"name":"x","graphics":{"meshes":[
             {"name":"m","type":"plane"},{"name":"m","type":"box"}],
             "materials":[{"name":"mt"}],
             "draws":[{"name":"d","mesh":"m","material":"mt"}]}})",
         "duplicate mesh"},
        {R"({"crisp_scenario":1,"name":"x","graphics":{"meshes":[
             {"name":"m","type":"plane"}],
             "materials":[{"name":"mt"}],
             "draws":[{"name":"d","mesh":"nope","material":"mt"}]}})",
         "unknown mesh"},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"preset":"voodoo2"},
             "compute":{"preset":"VIO"}})",
         "must be one of"},
        {R"({"crisp_scenario":1,"name":"x",
             "compute":{"preset":"VIO","frames":900}})",
         "frames"},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"preset":"rtx3070",
             "num_sms":4,"num_sms":0},"compute":{"preset":"VIO"}})",
         "duplicate key \"num_sms\""},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"partition":"tap"},
             "graphics":{"preset":"SPL"},"compute":{"preset":"VIO"}})",
         "partition must be one of exhaustive|mps|mig|fg|fg-slicer|"
         "mps-tap"},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"num_gpus":2,
             "partition":"mps"},"graphics":{"preset":"SPL"},
             "compute":{"preset":"VIO"}})",
         "\"partition\" needs num_gpus == 1"},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"partition":"fg-slicer"},
             "compute":{"preset":"VIO"}})",
         "partition \"fg-slicer\" needs both"},
        {R"({"crisp_scenario":1,"name":"x","gpu":{"partition":"mps-tap"},
             "graphics":{"preset":"SPL"}})",
         "partition \"mps-tap\" needs both"},
    };
    for (const Case &c : cases) {
        Scenario sc;
        ScenarioError err;
        ASSERT_FALSE(scenario::loadScenarioText(c.text, "mem", sc, err))
            << "accepted: " << c.text;
        EXPECT_NE(err.message.find(c.needle), std::string::npos)
            << "for " << c.text << "\n  got: " << err.message;
        EXPECT_GT(err.line, 0u) << c.text;
        EXPECT_GT(err.col, 0u) << c.text;
    }
}

TEST(ScenarioLoader, MissingFileIsAnError)
{
    Scenario sc;
    ScenarioError err;
    ASSERT_FALSE(
        scenario::loadScenarioFile(scenarioPath("nope.json"), sc, err));
    EXPECT_FALSE(err.message.empty());
    EXPECT_NE(err.file.find("nope.json"), std::string::npos);
}

TEST(ScenarioLoader, EveryCheckedInScenarioLoads)
{
    uint32_t count = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(CRISP_SCENARIO_DIR)) {
        if (e.path().extension() != ".json") {
            continue;
        }
        Scenario sc;
        ScenarioError err;
        EXPECT_TRUE(scenario::loadScenarioFile(e.path().string(), sc, err))
            << err.str();
        EXPECT_FALSE(sc.name.empty()) << e.path();
        ++count;
    }
    // The suite ships the preset-coverage files plus the three stress
    // scenarios; a shrinking directory means files were lost, not renamed.
    EXPECT_GE(count, 7u);
}

// --- Parity against the library-call sequence ----------------------------

/** A preset-backed scenario file and the library calls it stands for. */
struct ParityCase
{
    const char *file;
    GpuConfig (*gpu)();
    const char *scene;
    uint32_t width;
    uint32_t height;
    uint32_t frames;
    std::vector<KernelInfo> (*compute)(AddressSpace &heap,
                                       const RenderPipeline &pipeline);
};

void
PrintTo(const ParityCase &c, std::ostream *os)
{
    *os << c.file;
}

class ScenarioParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(ScenarioParity, MatchesLibraryCallSequenceExactly)
{
    const ParityCase &pc_case = GetParam();
    const Scenario sc = loadFileOrDie(pc_case.file);

    // Scenario path.
    Gpu a(scenario::gpuConfigFor(sc));
    AddressSpace heap_a;
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenario(sc, a, heap_a, mat);
    ASSERT_NE(sr.gfx, kInvalidStream);
    ASSERT_NE(sr.cmp, kInvalidStream);
    a.setPartition(PartitionConfig{});
    const auto run_a = a.run(8'000'000'000ull);
    ASSERT_TRUE(run_a.completed);

    // The same work assembled by hand: scene, pipeline, graphics and
    // compute streams, every frame, then the compute kernels in stream
    // order.
    Gpu b(pc_case.gpu());
    AddressSpace heap_b;
    Scene scene = buildSceneByName(pc_case.scene, heap_b);
    PipelineConfig pc;
    pc.width = pc_case.width;
    pc.height = pc_case.height;
    pc.lodEnabled = true;
    RenderPipeline pipeline(pc, heap_b);
    const StreamId gfx = b.createStream("graphics");
    const StreamId cmp = b.createStream("compute");
    std::vector<RenderSubmission> frames;
    for (uint32_t f = 0; f < pc_case.frames; ++f) {
        frames.push_back(pipeline.submit(scene));
        submitFrame(b, gfx, frames.back());
    }
    for (const KernelInfo &k : pc_case.compute(heap_b, pipeline)) {
        b.enqueueKernel(cmp, k);
    }
    b.setPartition(PartitionConfig{});
    const auto run_b = b.run(8'000'000'000ull);
    ASSERT_TRUE(run_b.completed);

    // Same heap layout, same frames, byte-identical per-stream stats.
    EXPECT_EQ(heap_a.allocatedEnd(), heap_b.allocatedEnd());
    ASSERT_EQ(mat.frames.size(), frames.size());
    for (size_t f = 0; f < frames.size(); ++f) {
        EXPECT_EQ(mat.frames[f].kernels.size(), frames[f].kernels.size());
    }
    EXPECT_EQ(run_a.cycles, run_b.cycles);
    expectStreamStatsIdentical(a.stats().stream(sr.gfx),
                               b.stats().stream(gfx));
    expectStreamStatsIdentical(a.stats().stream(sr.cmp),
                               b.stats().stream(cmp));
}

INSTANTIATE_TEST_SUITE_P(
    PresetPairings, ScenarioParity,
    ::testing::Values(
        ParityCase{"sponza_vio.json", GpuConfig::rtx3070, "SPL", 640, 360,
                   2,
                   [](AddressSpace &heap, const RenderPipeline &) {
                       return buildVio(heap, 2);
                   }},
        // Frame-coupled: the timewarp samples the rendered color buffer.
        ParityCase{"pistol_atw.json", GpuConfig::rtx3070, "PT", 480, 270, 1,
                   [](AddressSpace &heap, const RenderPipeline &p) {
                       return buildTimewarp(
                           heap, p.framebuffer().colorAddr(0, 0), 480, 270);
                   }},
        ParityCase{"planets_nn.json", GpuConfig::jetsonOrin, "IT", 480, 270,
                   1,
                   [](AddressSpace &heap, const RenderPipeline &) {
                       return buildNn(heap, 3);
                   }},
        ParityCase{"sponza_pbr_holo.json", GpuConfig::rtx3070, "SPH", 480,
                   270, 1,
                   [](AddressSpace &heap, const RenderPipeline &) {
                       return buildHolo(heap, 3);
                   }}),
    [](const ::testing::TestParamInfo<ParityCase> &info) {
        const std::string file = info.param.file;
        std::string name = file.substr(0, file.find('.'));
        name.erase(std::remove(name.begin(), name.end(), '_'), name.end());
        return name;
    });

// --- Partitioning from the scenario file -----------------------------------

/** A small rendering+compute pair on four SMs, long enough (~56k
 *  cycles) to cross TAP's first 50k-cycle epoch; @p gpu_extra is
 *  spliced into the "gpu" object. */
std::string
smallPairText(const std::string &gpu_extra)
{
    return R"({"crisp_scenario":1,"name":"small-pair",
        "gpu":{"preset":"rtx3070","num_sms":4)" +
           gpu_extra + R"(},
        "graphics":{"preset":"SPL","width":128,"height":72},
        "compute":{"preset":"VIO","frames":2,"width":160,"height":120}})";
}

class ScenarioPartition : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ScenarioPartition, MatchesTheHandAttachedPartition)
{
    const std::string name = GetParam();

    // gpu.partition names the scheme.
    const Scenario with =
        loadTextOrDie(smallPairText(R"(,"partition":")" + name + "\""));
    Gpu a(scenario::gpuConfigFor(with));
    AddressSpace heap_a;
    scenario::Materialized mat_a;
    const scenario::SubmitResult sa =
        scenario::submitScenario(with, a, heap_a, mat_a);
    const auto run_a = a.run(8'000'000'000ull);
    ASSERT_TRUE(run_a.completed);

    // The same work, partitioned and controlled by hand.
    const Scenario without = loadTextOrDie(smallPairText(""));
    Gpu b(scenario::gpuConfigFor(without));
    AddressSpace heap_b;
    scenario::Materialized mat_b;
    const scenario::SubmitResult sb =
        scenario::submitScenario(without, b, heap_b, mat_b);
    PartitionConfig part;
    if (name == "mps" || name == "mps-tap") {
        part.policy = PartitionPolicy::Mps;
    } else if (name == "mig") {
        part.policy = PartitionPolicy::Mig;
    } else if (name == "fg" || name == "fg-slicer") {
        part.policy = PartitionPolicy::FineGrained;
        part.priorityStream = sb.gfx;
    }
    b.setPartition(part);
    std::unique_ptr<WarpedSlicer> slicer;
    if (name == "fg-slicer") {
        WarpedSlicerConfig wc;
        wc.streamA = sb.gfx;
        wc.streamB = sb.cmp;
        slicer = std::make_unique<WarpedSlicer>(wc);
        b.addController(slicer.get());
    }
    std::unique_ptr<TapController> tap;
    if (name == "mps-tap") {
        TapConfig tc;
        tc.gfxStream = sb.gfx;
        tc.computeStream = sb.cmp;
        tap = std::make_unique<TapController>(tc, b);
        b.addController(tap.get());
    }
    const auto run_b = b.run(8'000'000'000ull);
    ASSERT_TRUE(run_b.completed);

    EXPECT_EQ(run_a.cycles, run_b.cycles);
    expectStreamStatsIdentical(a.stats().stream(sa.gfx),
                               b.stats().stream(sb.gfx));
    expectStreamStatsIdentical(a.stats().stream(sa.cmp),
                               b.stats().stream(sb.cmp));
    EXPECT_EQ(mat_a.controllers.slicer != nullptr, slicer != nullptr);
    EXPECT_EQ(mat_a.controllers.tap != nullptr, tap != nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ScenarioPartition,
    ::testing::Values("exhaustive", "mps", "mig", "fg", "fg-slicer",
                      "mps-tap"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
        return name;
    });

// --- Self-profile -----------------------------------------------------------

TEST(ScenarioProfile, SubmitTimesRasterOnTheGraphicsDeviceSink)
{
    const Scenario sc = loadFileOrDie("sponza_vio.json");
    telemetry::TelemetryConfig tc;
    tc.selfProfile = true;
    telemetry::TelemetrySink sink(tc);
    Gpu gpu(scenario::gpuConfigFor(sc));
    gpu.setTelemetry(&sink);
    AddressSpace heap;
    scenario::Materialized mat;
    scenario::submitScenario(sc, gpu, heap, mat);
    // Frames rasterize functionally at submit time, before any run.
    EXPECT_GT(sink.profiler().nanos(telemetry::Component::Raster), 0.0);
}

// --- Behaviour of the new stress scenarios ---------------------------------

TEST(MeshDeform, DisplacesVerticesAlongNormals)
{
    AddressSpace heap;
    const Mesh flat = Mesh::makePlane("p", 4, 2.0f, 1.0f, heap);
    const Mesh still =
        Mesh::deformed("p.0", flat, 0.7f, /*amplitude=*/0.0f, 3.0f, heap);
    const Mesh waved =
        Mesh::deformed("p.1", flat, 0.7f, /*amplitude=*/0.5f, 3.0f, heap);

    ASSERT_EQ(still.vertices().size(), flat.vertices().size());
    ASSERT_EQ(waved.vertices().size(), flat.vertices().size());
    // Fresh buffers even when the pose is unchanged: the re-upload cost
    // is paid every frame.
    EXPECT_NE(waved.vbAddr(), flat.vbAddr());
    EXPECT_NE(still.vbAddr(), waved.vbAddr());

    bool any_moved = false;
    for (size_t i = 0; i < flat.vertices().size(); ++i) {
        const Vec3 &o = flat.vertices()[i].position;
        const Vec3 &s = still.vertices()[i].position;
        EXPECT_EQ(o.x, s.x);
        EXPECT_EQ(o.y, s.y);
        EXPECT_EQ(o.z, s.z);
        const Vec3 &w = waved.vertices()[i].position;
        any_moved = any_moved || o.x != w.x || o.y != w.y || o.z != w.z;
    }
    EXPECT_TRUE(any_moved);
}

TEST(ScenarioStress, DeformingFlagRebuildsTheMeshEveryFrame)
{
    const Scenario sc = loadFileOrDie("deforming_flag.json");
    ASSERT_TRUE(sc.graphics.deform.enabled);
    EXPECT_EQ(sc.graphics.deform.mesh, "flag");

    Gpu gpu(scenario::gpuConfigFor(sc));
    AddressSpace heap;
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenario(sc, gpu, heap, mat);
    ASSERT_NE(sr.gfx, kInvalidStream);
    EXPECT_EQ(sr.cmp, kInvalidStream);
    ASSERT_EQ(mat.frames.size(), 4u);

    const auto run = gpu.run(8'000'000'000ull);
    ASSERT_TRUE(run.completed);
    uint64_t expected = 0;
    for (const RenderSubmission &f : mat.frames) {
        expected += f.kernels.size();
    }
    const StreamStats &gs = gpu.stats().stream(sr.gfx);
    EXPECT_EQ(gs.kernelsCompleted, expected);
    EXPECT_GT(gs.instructions, 0u);
}

TEST(ScenarioStress, DivergenceBudgetIncreasesExecutedWork)
{
    const char *base = R"({
        "crisp_scenario": 1, "name": "div-%s",
        "compute": {
            "buffers": [ { "name": "buf", "bytes": 262144 } ],
            "kernels": [ {
                "name": "walk", "ctas": 8, "threads_per_cta": 64,
                "regs_per_thread": 24, "iterations": 4,
                "fp32_ops": 4, "int_ops": 2,
                %s
                "loads": [ { "buffer": "buf", "pattern": "gather",
                             "access_bytes": 8, "count": 2 } ]
            } ]
        }
    })";
    char coherent[1024];
    char divergent[1024];
    std::snprintf(coherent, sizeof coherent, base, "coherent", "");
    std::snprintf(divergent, sizeof divergent, base, "divergent",
                  "\"divergence\": { \"extra_iterations\": 16, "
                  "\"seed\": 7 },");

    uint64_t instrs[2] = {0, 0};
    const char *texts[2] = {coherent, divergent};
    for (int i = 0; i < 2; ++i) {
        const Scenario sc = loadTextOrDie(texts[i]);
        Gpu gpu(scenario::gpuConfigFor(sc));
        AddressSpace heap;
        scenario::Materialized mat;
        const scenario::SubmitResult sr =
            scenario::submitScenario(sc, gpu, heap, mat);
        ASSERT_TRUE(gpu.run(8'000'000'000ull).completed);
        instrs[i] = gpu.stats().stream(sr.cmp).instructions;
    }
    EXPECT_GT(instrs[1], instrs[0]);
}

TEST(ScenarioStress, BurstScheduleGatesKernelArrival)
{
    const Scenario sc = loadTextOrDie(R"({
        "crisp_scenario": 1, "name": "bursts",
        "compute": {
            "buffers": [ { "name": "buf", "bytes": 65536 } ],
            "kernels": [ {
                "name": "tick", "ctas": 4, "threads_per_cta": 64,
                "regs_per_thread": 16, "iterations": 2, "fp32_ops": 4,
                "at": 1000,
                "loads": [ { "buffer": "buf", "access_bytes": 4,
                             "count": 1 } ]
            } ],
            "schedule": { "bursts": 3, "period": 200000 }
        }
    })");

    Gpu gpu(scenario::gpuConfigFor(sc));
    AddressSpace heap;
    scenario::Materialized mat;
    scenario::submitScenario(sc, gpu, heap, mat);
    ASSERT_TRUE(gpu.run(8'000'000'000ull).completed);

    // One launch per burst, none before its arrival cycle. The stream is
    // FIFO so the log's launch cycles are already in burst order.
    const auto &log = gpu.kernelLog();
    ASSERT_EQ(log.size(), 3u);
    for (size_t b = 0; b < log.size(); ++b) {
        EXPECT_GE(log[b].launchCycle, b * 200000ull + 1000ull)
            << "burst " << b;
    }
}

// The divergent-gather scenario saturates DRAM hard enough that a
// single L1 miss can wait north of 60k cycles — far past the derived
// mshrLeakAge — while still being live in a queue. With the watchdog on
// (checkInterval set) the run must complete, not be declared hung by the
// leak scan: regression for the false positive where age alone branded
// starved entries as leaks. The cycle count must also match an unwatched run
// bit for bit (the watchdog observes, never perturbs).
TEST(ScenarioStress, DramSaturationSurvivesTheWatchdog)
{
    const Scenario sc = loadFileOrDie("ray_traversal.json");

    Gpu watched(scenario::gpuConfigFor(sc));
    AddressSpace heap;
    scenario::Materialized mat;
    const scenario::SubmitResult sr =
        scenario::submitScenario(sc, watched, heap, mat);

    integrity::RunOptions opts;
    opts.checkInterval = 1024;   // scans many times inside one long wait
    const auto wr = watched.run(8'000'000'000ull, opts);
    ASSERT_TRUE(wr.completed)
        << (wr.hang ? wr.hang->render() : "no hang report");

    Gpu plain(scenario::gpuConfigFor(sc));
    AddressSpace heap2;
    scenario::Materialized mat2;
    scenario::submitScenario(sc, plain, heap2, mat2);
    const auto pr = plain.run(8'000'000'000ull);
    ASSERT_TRUE(pr.completed);
    EXPECT_EQ(wr.cycles, pr.cycles);
    expectStreamStatsIdentical(watched.stats().stream(sr.cmp),
                               plain.stats().stream(sr.cmp));
}

// --- Schema fuzzing --------------------------------------------------------
//
// These run under the sanitize CI job: a scenario file is user-supplied
// input, often hand-edited, so the loader must reject arbitrary
// corruption with a structured error — never UB, never fatal().

TEST(ScenarioFuzz, TruncationAtEveryByteOffset)
{
    const std::string text = readAll(scenarioPath("game_inference.json"));
    ASSERT_GT(text.size(), 100u);
    for (size_t len = 0; len < text.size(); ++len) {
        Scenario sc;
        ScenarioError err;
        if (!scenario::loadScenarioText(text.substr(0, len), "mem", sc,
                                        err)) {
            EXPECT_FALSE(err.message.empty()) << "at length " << len;
        }
    }
}

TEST(ScenarioFuzz, RandomByteFlipsNeverCrashTheLoader)
{
    const std::string pristine =
        readAll(scenarioPath("deforming_flag.json"));
    ASSERT_GT(pristine.size(), 100u);
    Rng rng(0xC0FFEEull);
    for (int i = 0; i < 400; ++i) {
        std::string text = pristine;
        const size_t pos = rng.nextBelow(text.size());
        text[pos] = static_cast<char>(
            static_cast<uint8_t>(text[pos]) ^
            static_cast<uint8_t>(1 + rng.nextBelow(255)));
        Scenario sc;
        ScenarioError err;
        if (!scenario::loadScenarioText(text, "mem", sc, err)) {
            EXPECT_FALSE(err.message.empty()) << "flip at " << pos;
        }
    }
}

} // namespace
} // namespace crisp
