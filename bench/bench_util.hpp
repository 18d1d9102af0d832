#ifndef CRISP_BENCH_BENCH_UTIL_HPP
#define CRISP_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "partition/scheme.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/oracle.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp::bench
{

/**
 * Resolution scaling.
 *
 * The paper samples every application at 2K (2560x1440) and 4K (3840x2160).
 * Simulating full frames is infeasible in this environment (the paper's own
 * artifact drops to 480p for tracing), so every benchmark renders at 1/4
 * scale per axis (1/16 the pixels) and says so in its output. Relative
 * behaviour — who wins, scaling between resolutions, composition shares —
 * is what the figures compare and is preserved.
 */
inline constexpr uint32_t k2kWidth = 640;
inline constexpr uint32_t k2kHeight = 360;
inline constexpr uint32_t k4kWidth = 960;
inline constexpr uint32_t k4kHeight = 540;

/** Print a standard header naming the experiment and its scaling. */
inline void
header(const char *figure, const char *what)
{
    std::printf("=== %s: %s ===\n", figure, what);
    std::printf("(resolutions scaled 1/4 per axis vs the paper; "
                "see EXPERIMENTS.md)\n\n");
}

/**
 * Counter-audit cadence for bench runs: every figure/table run carries
 * the crisp::audit conservation identities so a future accounting bug
 * fails the bench (and the golden CI job) instead of silently skewing a
 * CSV. CRISP_AUDIT_INTERVAL overrides the default cadence; 0 disables.
 * It must be a whole decimal number: anything else ("abc", "4k") is
 * fatal rather than a silently different audit.
 */
inline Cycle
auditInterval()
{
    const char *env = std::getenv("CRISP_AUDIT_INTERVAL");
    if (env == nullptr) {
        return 4096;
    }
    return wholeNumber<Cycle>("CRISP_AUDIT_INTERVAL", env);
}

/** Run to completion with the counter audit attached (benches only). */
inline Gpu::RunResult
runAudited(Gpu &gpu, Cycle max_cycles)
{
    integrity::RunOptions opts;
    opts.auditInterval = auditInterval();
    Gpu::RunResult r = gpu.run(max_cycles, opts);
    if (r.hang) {
        fatal("counter audit failed:\n%s", r.hang->render().c_str());
    }
    return r;
}

/** Result of a graphics-only frame on the timing model. */
struct FrameResult
{
    RenderSubmission submission;
    Cycle cycles = 0;
    StreamStats stats;
    double simMs = 0.0;
};

/**
 * Render @p scene functionally at the given resolution, then replay the
 * frame's kernels on a fresh GPU of the given config.
 */
inline FrameResult
runFrame(const Scene &scene, uint32_t width, uint32_t height,
         const GpuConfig &gpu_cfg, bool lod_enabled = true)
{
    AddressSpace heap;
    (void)heap;  // scene resources were allocated by the caller's heap
    PipelineConfig pc;
    pc.width = width;
    pc.height = height;
    pc.lodEnabled = lod_enabled;
    // NOTE: the pipeline needs its own framebuffer allocation; reuse a
    // local heap placed far above scene allocations to avoid overlap.
    AddressSpace fb_heap(0x4000'0000ull);
    RenderPipeline pipe(pc, fb_heap);

    FrameResult out;
    out.submission = pipe.submit(scene);

    Gpu gpu(gpu_cfg);
    const StreamId gfx = gpu.createStream("graphics");
    submitFrame(gpu, gfx, out.submission);
    const auto run = runAudited(gpu, 2'000'000'000ull);
    fatal_if(!run.completed, "frame simulation did not drain");
    out.cycles = run.cycles;
    out.stats = gpu.stats().stream(gfx);
    out.simMs = gpu_cfg.cyclesToMs(run.cycles);
    return out;
}

/**
 * Build a telemetry sink configured for bench-style counter sampling.
 * Attach with gpu.setTelemetry(&sink); read sink.series() afterwards.
 */
inline telemetry::TelemetrySink
makeSamplingSink(Cycle sample_interval)
{
    telemetry::TelemetryConfig tc;
    tc.sampleInterval = sample_interval;
    return telemetry::TelemetrySink(tc);
}

/** Mean of one counter-series column. */
inline double
seriesMean(const telemetry::CounterSeries &series, const std::string &col)
{
    const std::vector<double> &v = series.values(col);
    if (v.empty()) {
        return 0.0;
    }
    double total = 0.0;
    for (double x : v) {
        total += x;
    }
    return total / static_cast<double>(v.size());
}

/** Max of one counter-series column. */
inline double
seriesMax(const telemetry::CounterSeries &series, const std::string &col)
{
    double best = 0.0;
    for (double x : series.values(col)) {
        best = std::max(best, x);
    }
    return best;
}

/** Named builder for the three compute workloads of §V-B. */
inline std::vector<KernelInfo>
buildComputeByName(const std::string &name, AddressSpace &heap)
{
    if (name == "VIO") {
        return buildVio(heap, /*frames=*/2);
    }
    if (name == "HOLO") {
        return buildHolo(heap);
    }
    if (name == "NN") {
        return buildNn(heap, /*layers=*/4);
    }
    fatal("unknown compute workload %s", name.c_str());
}

/** Outcome of one concurrent rendering+compute run. */
struct PairResult
{
    Cycle makespan = 0;
    Cycle gfxFinish = 0;
    Cycle cmpFinish = 0;
    StreamStats gfx;
    StreamStats cmp;
};

/** Cycles for a compute workload running alone on the whole GPU. */
inline Cycle
runComputeAlone(const std::string &compute_name, const GpuConfig &gpu_cfg)
{
    AddressSpace cheap(0x8000'0000ull);
    Gpu gpu(gpu_cfg);
    const StreamId s = gpu.createStream("compute");
    for (const KernelInfo &k : buildComputeByName(compute_name, cheap)) {
        gpu.enqueueKernel(s, k);
    }
    const auto r = runAudited(gpu, 4'000'000'000ull);
    fatal_if(!r.completed, "compute-alone run did not drain");
    return r.cycles;
}

/** Cycles for a rendering frame running alone on the whole GPU. */
inline Cycle
runGraphicsAlone(const std::string &scene_name, const GpuConfig &gpu_cfg,
                 uint32_t width, uint32_t height)
{
    AddressSpace heap;
    const Scene scene = buildSceneByName(scene_name, heap);
    return runFrame(scene, width, height, gpu_cfg).cycles;
}

/**
 * Run one rendering scene concurrently with one compute workload under a
 * partitioning scheme and return the makespan and per-stream stats.
 * Optional controllers (samplers) are attached after the scheme's own.
 */
inline PairResult
runPair(const std::string &scene_name, const std::string &compute_name,
        const GpuConfig &gpu_cfg, PartitionScheme scheme, uint32_t width,
        uint32_t height,
        const std::function<void(Gpu &, StreamId, StreamId)> &attach = {})
{
    AddressSpace heap;
    const Scene scene = buildSceneByName(scene_name, heap);
    AddressSpace fb_heap(0x4000'0000ull);
    PipelineConfig pc;
    pc.width = width;
    pc.height = height;
    RenderPipeline pipe(pc, fb_heap);
    const RenderSubmission sub = pipe.submit(scene);

    AddressSpace cheap(0x8000'0000ull);
    const std::vector<KernelInfo> compute =
        buildComputeByName(compute_name, cheap);

    Gpu gpu(gpu_cfg);
    const StreamId gfx = gpu.createStream("graphics");
    const StreamId cmp = gpu.createStream("compute");
    submitFrame(gpu, gfx, sub);
    for (const KernelInfo &k : compute) {
        gpu.enqueueKernel(cmp, k);
    }

    const SchemeControllers controllers =
        applyPartitionScheme(gpu, scheme, gfx, cmp);
    if (attach) {
        attach(gpu, gfx, cmp);
    }

    const auto r = runAudited(gpu, 4'000'000'000ull);
    fatal_if(!r.completed, "pair %s+%s under %s did not drain",
             scene_name.c_str(), compute_name.c_str(),
             partitionSchemeName(scheme));
    PairResult out;
    out.makespan = r.cycles;
    out.gfxFinish = gpu.streamFinishCycle(gfx);
    out.cmpFinish = gpu.streamFinishCycle(cmp);
    out.gfx = gpu.stats().stream(gfx);
    out.cmp = gpu.stats().stream(cmp);
    return out;
}

} // namespace crisp::bench

#endif // CRISP_BENCH_BENCH_UTIL_HPP
