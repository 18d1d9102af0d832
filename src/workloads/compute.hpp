#ifndef CRISP_WORKLOADS_COMPUTE_HPP
#define CRISP_WORKLOADS_COMPUTE_HPP

#include <string>
#include <vector>

#include "graphics/address_space.hpp"
#include "isa/trace.hpp"

namespace crisp
{

/**
 * @file
 * Synthetic CUDA-kernel trace generators for the paper's XR system tasks
 * (§V-B). The paper collects SASS traces from silicon with NVBit; we build
 * generators that emit the same trace schema with the documented
 * instruction mixes and memory-access patterns:
 *
 *  - **VIO** (visual-inertial odometry): a pipeline of many small
 *    image-processing kernels (Gaussian blur, undistort/remap, FAST corner
 *    detection, Lucas-Kanade optical flow) over camera frames.
 *  - **HOLO** (hologram generation): extremely compute-bound phase
 *    accumulation, heavy on FMA chains and transcendentals, few memory
 *    accesses.
 *  - **NN** (RITnet eye segmentation): principal GEMM/conv kernels with
 *    shared-memory tiling and tensor ops, small-batch and low-occupancy.
 */

/** Per-thread global-memory access pattern of a synthetic kernel. */
enum class MemPatternKind : uint8_t
{
    Streaming,  ///< Unit-stride, each thread its own element.
    Stencil,    ///< Neighborhood loads around the thread's pixel.
    Gather,     ///< Hashed/irregular indices (remap tables).
    Broadcast,  ///< All threads read the same small table (high reuse).
};

/** One global-memory access group in a kernel body. */
struct MemPattern
{
    MemPatternKind kind = MemPatternKind::Streaming;
    Addr base = 0;
    uint64_t regionBytes = 1 << 20;
    uint8_t accessBytes = 4;
    uint32_t count = 1;          ///< Loads (or stores) per thread.
    uint32_t rowPitch = 640;     ///< Element pitch for stencil patterns.
};

/** Declarative description of a synthetic compute kernel. */
struct ComputeKernelDesc
{
    std::string name;
    uint32_t ctas = 64;
    uint32_t threadsPerCta = 256;
    uint32_t regsPerThread = 32;
    uint32_t smemPerCta = 0;

    uint32_t iterations = 1;     ///< Body repetitions (k-loop).
    // Per-thread per-iteration operation counts.
    uint32_t fp32Ops = 0;
    uint32_t intOps = 0;
    uint32_t sfuOps = 0;
    uint32_t tensorOps = 0;
    uint32_t smemLoads = 0;
    uint32_t smemStores = 0;
    bool barrierPerIteration = false;

    std::vector<MemPattern> loads;   ///< Per iteration.
    MemPattern store;                ///< Applied once at kernel end.
    bool hasStore = false;

    /**
     * Branch divergence (ray-traversal style): after the uniform
     * iterations, each lane draws a private extra-iteration budget in
     * [0, divergenceMaxExtraIters] from a per-lane hash, and the warp
     * keeps iterating with a shrinking active mask until every lane's
     * budget is spent — the classic while-loop divergence of BVH
     * traversal, where rays exit at different depths. Each extra
     * iteration re-emits the load patterns and ALU mix under the
     * partial mask, so both the execution units and the coalescer see
     * progressively sparser warps. 0 keeps the kernel uniform (and the
     * emitted trace bit-identical to descriptions predating the field).
     */
    uint32_t divergenceMaxExtraIters = 0;
    uint64_t divergenceSeed = 0;
};

/**
 * Append, for one access @p access of loop iteration @p iteration, the
 * address of each lane of a @p lanes-wide warp whose first thread is
 * @p thread_base, skipping lanes whose bit in @p active_mask is clear.
 * These are the addresses the compute generator gives its loads and
 * stores.
 */
void appendPatternAddrs(const MemPattern &p, uint64_t thread_base,
                        uint32_t lanes, uint32_t access, uint32_t iteration,
                        uint32_t active_mask, std::vector<Addr> &out);

/** Materialize a synthetic kernel as a launchable trace kernel. */
KernelInfo buildComputeKernel(const ComputeKernelDesc &desc);

/**
 * The VIO pipeline: @p frames camera frames, each running blur, remap,
 * corner detection and optical flow at two pyramid levels — many small
 * kernels, matching the paper's observation that sampling-based dynamic
 * partitioning cannot amortize its overhead on VIO.
 */
std::vector<KernelInfo> buildVio(AddressSpace &heap, uint32_t frames = 1,
                                 uint32_t width = 320, uint32_t height = 240);

/** Hologram generation: a few large, heavily compute-bound kernels. */
std::vector<KernelInfo> buildHolo(AddressSpace &heap, uint32_t points = 3);

/**
 * RITnet principal kernels (Principal Kernel Selection, §V-B): GEMM-style
 * conv kernels with shared-memory tiling, tensor ops and small grids that
 * cannot fill the machine (batch is fixed at two eye images).
 */
std::vector<KernelInfo> buildNn(AddressSpace &heap, uint32_t layers = 3);

/**
 * Asynchronous timewarp (§II): the MR post-processing pass that re-projects
 * the rendered frame to the user's latest head pose right before scanout.
 * One wide kernel per eye: gather-reads the rendered color buffer with a
 * pose-dependent distortion and writes the warped output — the classic
 * async-compute companion of the rendering pipeline.
 *
 * @param frame_color base address of the rendered color buffer (pass the
 *        framebuffer's colorAddr(0,0) to warp an actual rendered frame)
 */
std::vector<KernelInfo> buildTimewarp(AddressSpace &heap, Addr frame_color,
                                      uint32_t width = 640,
                                      uint32_t height = 360);

} // namespace crisp

#endif // CRISP_WORKLOADS_COMPUTE_HPP
