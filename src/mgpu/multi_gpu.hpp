#ifndef CRISP_MGPU_MULTI_GPU_HPP
#define CRISP_MGPU_MULTI_GPU_HPP

#include <memory>
#include <vector>

#include "gpu/gpu.hpp"
#include "gpu/machine.hpp"
#include "graphics/address_space.hpp"
#include "integrity/report.hpp"
#include "mgpu/fabric.hpp"

namespace crisp
{
namespace mgpu
{

/** Configuration of an N-device machine: per-device GPU + fabric knobs. */
struct MultiGpuConfig
{
    uint32_t numGpus = 2;

    /** Every device runs the same per-device configuration. */
    GpuConfig gpu = GpuConfig::rtx3070();

    FabricConfig fabric;

    /**
     * Static heap window per device: device d owns addresses
     * [d * windowBytes, (d+1) * windowBytes). 16 GiB keeps every
     * single-device heap convention (scene 0x1000'0000, framebuffer
     * 0x4000'0000, compute 0x8000'0000) inside device 0's window.
     */
    Addr windowBytes = 1ull << 34;

    /**
     * Stream-id stride between devices: device d allocates stream ids
     * from d * streamIdStride, so per-stream statistics keyed by id stay
     * unambiguous machine-wide (the merged registry and the Chrome trace
     * both rely on this).
     */
    StreamId streamIdStride = 32;

    /** Two RTX 3070-class devices over an NVLink-ish mesh. */
    static MultiGpuConfig dualRtx3070();
};

/**
 * Top level of a multi-GPU machine: owns N Gpu devices and the
 * InterGpuFabric between them. Stepping and running go through the
 * shared run loop (crisp::Machine), so a multi-GPU run gets the same
 * idle fast-forward, watchdog, hang report, audit and cancellation as a
 * single GPU.
 */
class MultiGpu
{
  public:
    explicit MultiGpu(const MultiGpuConfig &cfg);
    ~MultiGpu();

    uint32_t numGpus() const { return cfg_.numGpus; }
    Gpu &device(uint32_t d);
    const Gpu &device(uint32_t d) const;
    InterGpuFabric &fabric() { return *fabric_; }
    const InterGpuFabric &fabric() const { return *fabric_; }
    const MultiGpuConfig &config() const { return cfg_; }

    /** First byte of device @p d's static heap window. */
    Addr windowBase(uint32_t d) const;

    /**
     * A heap inside device @p d's window, at the same local offset the
     * single-GPU entry points use — allocate a buffer from heapFor(0)
     * and read it from a stream on device 1 to generate remote traffic.
     */
    AddressSpace heapFor(uint32_t d, Addr local_base = 0x1000'0000ull) const;

    /** Does nothing; see engine::EngineConfig. */
    void setEngine(const engine::EngineConfig &) {}

    /** Advance the machine one cycle (fabric, then devices in id order). */
    void tick() { machine_->tick(); }

    /** Every device drained and no packet left on the fabric. */
    bool done() const { return machine_->done(); }

    Cycle now() const { return machine_->now(); }

    /** Gpu::RunResult plus the audit violations, when any stopped it. */
    struct RunResult : Gpu::RunResult
    {
        std::vector<integrity::InvariantViolation> violations;
    };

    /** Run the machine under @p opts (see crisp::Machine::run). */
    RunResult run(Cycle max_cycles, const integrity::RunOptions &opts);

    /**
     * Run until done or @p max_cycles elapse. A non-zero
     * @p audit_interval runs the machine-wide counter audit at that
     * cadence (and once at the end); any violation stops the run.
     */
    RunResult run(Cycle max_cycles = ~0ull, Cycle audit_interval = 0);

    /** See Machine::mergedStats. */
    StatsRegistry mergedStats() const { return machine_->mergedStats(); }

  private:
    MultiGpuConfig cfg_;
    std::unique_ptr<InterGpuFabric> fabric_;
    std::vector<std::unique_ptr<Gpu>> devices_;
    std::unique_ptr<Machine> machine_;
};

} // namespace mgpu
} // namespace crisp

#endif // CRISP_MGPU_MULTI_GPU_HPP
