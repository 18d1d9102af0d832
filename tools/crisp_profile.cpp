// crisp_profile: run representative workloads under the telemetry
// self-profiler and emit a ranked hotspot report.
//
// The optimization loop this serves (ROADMAP item 5, "Parallelizing a
// modern GPU simulator"): profile first, attack the top of the ranking,
// re-verify byte-identity with tools/run_golden_suite.sh, re-profile.
// The JSON keeps the targets data-driven; docs/PROFILING.md describes
// how to read it.
//
// Usage:
//   crisp_profile [--out FILE] [--scenario NAME]
//
// Scenarios:
//   mixed    (default) one Sponza-PBR frame + VIO compute concurrently —
//            exercises the graphics pipeline, SM issue, L1/L2 and DRAM.
//   compute  VIO + HOLO + NN compute streams only (no raster time).
//
// Output: a JSON object with per-component exclusive wall time ranked
// descending, plus whole-run throughput (cycles/sec) so successive runs
// form a comparable series.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "telemetry/self_profiler.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

#include <chrono>

namespace crisp
{
namespace
{

struct Options
{
    std::string out = "crisp_profile.json";
    std::string scenario = "mixed";
};

GpuConfig
profileGpu()
{
    // The graphics pipeline sizes raster work off the modeled machine;
    // use the same RTX 3070 model the golden benches run so the hotspot
    // ranking reflects the code paths the suite actually exercises.
    GpuConfig cfg = GpuConfig::rtx3070();
    cfg.name = "crisp-profile";
    return cfg;
}

/**
 * Scenario state that must outlive gpu.run(): fragment kernels keep raw
 * Material pointers into the Scene, so the scene (and the pipeline that
 * owns the framebuffer) stay resident until the simulation drains.
 */
struct ScenarioState
{
    Scene scene;
    AddressSpace fbHeap{0x4000'0000ull};
    std::unique_ptr<RenderPipeline> pipe;
};

/** Enqueue the scenario's work; returns after all streams are loaded. */
void
loadScenario(Gpu &gpu, AddressSpace &heap, ScenarioState &state,
             const std::string &scenario)
{
    if (scenario == "mixed" || scenario == "graphics") {
        state.scene = buildSponza(heap, /*pbr=*/true);
        PipelineConfig pc;
        pc.width = 640;
        pc.height = 360;
        state.pipe = std::make_unique<RenderPipeline>(pc, state.fbHeap);
        // The frame rasterizes functionally inside submit(): time it.
        state.pipe->setProfiler(&gpu.telemetry()->profiler());
        const StreamId gfx = gpu.createStream("graphics");
        submitFrame(gpu, gfx, state.pipe->submit(state.scene));
    }
    if (scenario == "mixed") {
        const StreamId cmp = gpu.createStream("vio");
        for (const KernelInfo &k : buildVio(heap)) {
            gpu.enqueueKernel(cmp, k);
        }
    }
    if (scenario == "compute") {
        const StreamId vio = gpu.createStream("vio");
        for (const KernelInfo &k : buildVio(heap)) {
            gpu.enqueueKernel(vio, k);
        }
        const StreamId holo = gpu.createStream("holo");
        for (const KernelInfo &k : buildHolo(heap)) {
            gpu.enqueueKernel(holo, k);
        }
        const StreamId nn = gpu.createStream("nn");
        for (const KernelInfo &k : buildNn(heap)) {
            gpu.enqueueKernel(nn, k);
        }
    }
}

int
runProfile(const Options &opt)
{
    telemetry::TelemetryConfig tc;
    tc.selfProfile = true;
    telemetry::TelemetrySink sink(tc);

    AddressSpace heap;
    Gpu gpu(profileGpu());
    gpu.setTelemetry(&sink);
    ScenarioState state;
    loadScenario(gpu, heap, state, opt.scenario);

    const auto t0 = std::chrono::steady_clock::now();
    const auto r = gpu.run(2'000'000'000ull);
    const double wall_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    fatal_if(!r.completed, "profile scenario did not drain");

    const telemetry::SelfProfiler &prof = sink.profiler();
    const double total_ns = prof.totalNanos();

    // Rank components by exclusive time, descending.
    struct Row
    {
        telemetry::Component c;
        double ns;
    };
    std::vector<Row> rows;
    const auto n =
        static_cast<size_t>(telemetry::Component::NumComponents);
    for (size_t i = 0; i < n; ++i) {
        const auto c = static_cast<telemetry::Component>(i);
        rows.push_back({c, prof.nanos(c)});
    }
    for (size_t i = 1; i < rows.size(); ++i) {  // insertion sort, n = 8
        Row key = rows[i];
        size_t j = i;
        while (j > 0 && rows[j - 1].ns < key.ns) {
            rows[j] = rows[j - 1];
            --j;
        }
        rows[j] = key;
    }

    std::printf("%s", prof.render(r.cycles).c_str());
    std::printf("\ncycles=%llu  wall=%.3fs  %.1f cycles/sec\n",
                static_cast<unsigned long long>(r.cycles), wall_sec,
                static_cast<double>(r.cycles) / wall_sec);

    FILE *f = std::fopen(opt.out.c_str(), "w");
    fatal_if(f == nullptr, "cannot write %s", opt.out.c_str());
    std::fprintf(f, "{\n  \"tool\": \"crisp_profile\",\n");
    std::fprintf(f, "  \"scenario\": \"%s\",\n", opt.scenario.c_str());
    std::fprintf(f, "  \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(r.cycles));
    std::fprintf(f, "  \"wall_sec\": %.6f,\n", wall_sec);
    std::fprintf(f, "  \"cycles_per_sec\": %.1f,\n",
                 static_cast<double>(r.cycles) / wall_sec);
    std::fprintf(f, "  \"profiled_sec\": %.6f,\n", total_ns / 1e9);
    std::fprintf(f, "  \"hotspots\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            f,
            "    {\"component\": \"%s\", \"seconds\": %.6f, "
            "\"share\": %.4f, \"ns_per_cycle\": %.2f}%s\n",
            telemetry::componentName(row.c), row.ns / 1e9,
            total_ns > 0 ? row.ns / total_ns : 0.0,
            r.cycles > 0 ? row.ns / static_cast<double>(r.cycles) : 0.0,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", opt.out.c_str());
    return 0;
}

} // namespace
} // namespace crisp

int
main(int argc, char **argv)
{
    crisp::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            opt.out = argv[++i];
        } else if (arg == "--scenario" && i + 1 < argc) {
            opt.scenario = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] "
                         "[--scenario mixed|graphics|compute]\n",
                         argv[0]);
            return 2;
        }
    }
    if (opt.scenario != "mixed" && opt.scenario != "graphics" &&
        opt.scenario != "compute") {
        std::fprintf(stderr, "unknown scenario '%s'\n",
                     opt.scenario.c_str());
        return 2;
    }
    return crisp::runProfile(opt);
}
