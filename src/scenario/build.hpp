#ifndef CRISP_SCENARIO_BUILD_HPP
#define CRISP_SCENARIO_BUILD_HPP

#include <memory>
#include <vector>

#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "mgpu/multi_gpu.hpp"
#include "partition/scheme.hpp"
#include "scenario/scenario.hpp"

namespace crisp::scenario
{

/** The GpuConfig a scenario asks for (preset plus num_sms override). */
GpuConfig gpuConfigFor(const Scenario &sc);

/**
 * Everything the enqueued kernels reference — the scene (trace generators
 * sample its textures at replay time), the pipeline and the functional
 * frame reports — plus the controllers the partition scheme attached.
 * Must outlive the Gpu::run that replays the kernels.
 */
struct Materialized
{
    std::vector<std::unique_ptr<Scene>> scenes;
    std::unique_ptr<RenderPipeline> pipeline;
    std::vector<RenderSubmission> frames;
    SchemeControllers controllers;
};

/** Stream ids the scenario's work landed on (kInvalidStream = no side). */
struct SubmitResult
{
    StreamId gfx = kInvalidStream;
    StreamId cmp = kInvalidStream;
};

/**
 * Materialize the scenario and enqueue all of its work on @p gpu.
 *
 * The call sequence is the library's own — scene, pipeline, graphics
 * stream, compute stream, per-frame submission, compute enqueue — in
 * that order with that heap-allocation pattern, so a preset-backed
 * scenario file replays bit-identically to the same calls made by hand
 * (the ScenarioParity tests pin this for every preset pairing).
 *
 * When @p gpu carries a self-profiling telemetry sink, the pipeline's
 * functional rendering is timed on it (Component::Raster); attach the
 * sink before calling this.
 *
 * Once the work is enqueued, gpu.partition is applied through
 * applyPartitionScheme (exhaustive included); its controllers live in
 * @p out.
 */
SubmitResult submitScenario(const Scenario &sc, Gpu &gpu,
                            AddressSpace &heap, Materialized &out);

/** submitScenarioMulti's SubmitResult: stream ids plus the device each
 *  stream landed on under the scenario's placement. */
struct MultiSubmitResult
{
    StreamId gfx = kInvalidStream;
    StreamId cmp = kInvalidStream;
    uint32_t gfxDevice = 0;
    uint32_t cmpDevice = 0;
};

/**
 * Materialize a multi-GPU scenario (gpu.num_gpus > 1) onto @p mgpu.
 *
 * The gpu.placement knob resolves each stream to a device — split puts
 * graphics on device 0 and compute on device 1, colocated/mig put both
 * on device 0 (partitioned by the mps/mig scheme when both streams
 * exist) — and per-stream "device" fields override it. Graphics
 * resources allocate from the graphics device's heap window, compute
 * buffers from the compute device's, and a buffer's own "device" field
 * overrides that; a buffer homed away from the stream that touches it
 * makes every L1 miss a remote access over the inter-GPU fabric. The
 * submission sequence, and the raster self-profile on the graphics
 * device, are submitScenario's.
 */
MultiSubmitResult submitScenarioMulti(const Scenario &sc,
                                      mgpu::MultiGpu &mgpu,
                                      Materialized &out);

/**
 * Arrival cycle of each burst of @p s: b*period for the periodic model,
 * or seeded cumulative exponential gaps with mean core_clock/rate_hz
 * for the Poisson model — deterministic for a fixed seed.
 */
std::vector<Cycle> burstBases(const ScheduleNode &s, double core_clock_mhz);

} // namespace crisp::scenario

#endif // CRISP_SCENARIO_BUILD_HPP
