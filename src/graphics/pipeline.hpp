#ifndef CRISP_GRAPHICS_PIPELINE_HPP
#define CRISP_GRAPHICS_PIPELINE_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "graphics/batching.hpp"
#include "graphics/framebuffer.hpp"
#include "graphics/raster.hpp"
#include "graphics/scene.hpp"
#include "graphics/shader.hpp"
#include "isa/trace.hpp"

namespace crisp
{

namespace telemetry
{
class SelfProfiler;
}

/** Rendering pipeline configuration. */
struct PipelineConfig
{
    uint32_t width = 640;
    uint32_t height = 360;
    uint32_t tileSize = 16;
    uint32_t batchSize = kDefaultVertexBatchSize;
    /**
     * Mipmapped texturing. When false the texture unit always references
     * level 0 — the broken-baseline configuration of Fig 9.
     */
    bool lodEnabled = true;
    /** Warps per fragment-shader CTA (256 threads at the default 8). */
    uint32_t maxWarpsPerCta = 8;
    /** Filter used for functional (image-producing) sampling. */
    TexFilter functionalFilter = TexFilter::Bilinear;
    /**
     * Recreate the early-Z depth traffic in the fragment traces: one
     * 4-byte depth read (and a write for survivors) per fragment through
     * the L2, tagged as pipeline data. Off by default to match the
     * paper's black-box treatment of the ROP/depth path.
     */
    bool emitDepthTraffic = false;
};

/** Per-drawcall record of what the functional pipeline produced. */
struct DrawcallReport
{
    std::string name;
    uint32_t drawIndex = 0;
    uint64_t batches = 0;
    /** Exact vertex-shader invocations (sum of batch unique vertices). */
    uint64_t vsInvocations = 0;
    /** VS thread count as the simulator reports it: warps x 32 (Fig 3). */
    uint64_t vsThreadsLaunched = 0;
    RasterStats raster;
    uint64_t fragments = 0;
    uint64_t fsWarps = 0;
    uint64_t fsCtas = 0;
    uint32_t texturesPerFragment = 0;
    /** Indices into RenderSubmission::kernels (~0u when absent). */
    uint32_t vsKernelIndex = ~0u;
    uint32_t fsKernelIndex = ~0u;
};

/**
 * Result of one frame submission: the trace kernels to replay on the
 * timing model (in submission order) plus functional per-drawcall reports.
 */
struct RenderSubmission
{
    std::vector<KernelInfo> kernels;
    /**
     * Intra-frame dependencies: kernel i may start once kernel
     * dependsOn[i] (an index into kernels) completes; -1 = immediately.
     * A drawcall's fragment kernel depends on its own vertex kernel only,
     * so consecutive drawcalls overlap as in Immediate Tiled Rendering.
     */
    std::vector<int> dependsOn;
    std::vector<DrawcallReport> reports;

    uint64_t totalVsInvocations() const;
    uint64_t totalFragments() const;
};

/**
 * The CRISP rendering pipeline (Fig 2).
 *
 * Functionally executes the geometry stages at submit time — vertex
 * batching with in-batch dedup, vertex shading, primitive assembly with
 * frustum/backface culling, ITR tile binning, edge-function rasterization
 * with early-Z and analytic LoD — and emits SASS-like trace kernels (one
 * vertex + one fragment kernel per drawcall) for the Accel-Sim-class
 * timing model. Fixed-function stages appear in the traces only through
 * the memory traffic they recreate (attribute writes and reads through
 * L2); the ROP is skipped entirely (§III).
 *
 * The timing model never reads colors, so functional fragment shading
 * (mipmapped texture sampling and the framebuffer color writes) is queued
 * on the framebuffer and runs at the first color read (see
 * Framebuffer::deferColor); a frame whose image is never read is never
 * shaded, and its textures never build their content.
 *
 * The Scene must outlive any Gpu run that replays the returned kernels
 * (trace generators reference its textures) and any color read of the
 * frame (the deferred shading samples its materials' textures); its
 * materials and textures must not change in between.
 */
class RenderPipeline
{
  public:
    RenderPipeline(const PipelineConfig &cfg, AddressSpace &heap);

    /**
     * Render a frame: writes depth, queues the color shading on the
     * framebuffer (dropping the previous frame's) and returns the kernels.
     */
    RenderSubmission submit(const Scene &scene);

    Framebuffer &framebuffer() { return fb_; }
    const Framebuffer &framebuffer() const { return fb_; }
    const PipelineConfig &config() const { return cfg_; }

    /**
     * Attach the telemetry self-profiler (not owned; nullptr detaches).
     * Attributes the functional rasterization work done at submit time.
     */
    void setProfiler(telemetry::SelfProfiler *profiler)
    {
        profiler_ = profiler;
    }

  private:
    PipelineConfig cfg_;
    AddressSpace &heap_;
    Framebuffer fb_;
    telemetry::SelfProfiler *profiler_ = nullptr;
    /** Drawcall ids are unique across all frames of this pipeline. */
    uint32_t nextDrawcall_ = 0;
};

/**
 * Static trace analysis for Fig 10: for every CTA of a (fragment) kernel,
 * count the distinct 128 B cache lines referenced by its TEX instructions.
 *
 * @param max_ctas cap on CTAs examined (0 = all)
 */
Histogram texLinesPerCtaHistogram(const KernelInfo &kernel,
                                  uint64_t max_bucket = 63,
                                  uint32_t max_ctas = 0);

} // namespace crisp

#endif // CRISP_GRAPHICS_PIPELINE_HPP
