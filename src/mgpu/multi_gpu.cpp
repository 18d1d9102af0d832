#include "mgpu/multi_gpu.hpp"

#include "common/logging.hpp"

namespace crisp
{
namespace mgpu
{

MultiGpuConfig
MultiGpuConfig::dualRtx3070()
{
    MultiGpuConfig cfg;
    cfg.numGpus = 2;
    cfg.gpu = GpuConfig::rtx3070();
    return cfg;
}

MultiGpu::MultiGpu(const MultiGpuConfig &cfg) : cfg_(cfg)
{
    fatal_if(cfg_.numGpus < 2 || cfg_.numGpus > 8,
             "MultiGpu models 2..8 devices, not %u", cfg_.numGpus);
    fatal_if(cfg_.streamIdStride == 0, "stream-id stride must be non-zero");
    fabric_ = std::make_unique<InterGpuFabric>(cfg_.fabric, cfg_.numGpus,
                                               cfg_.windowBytes);
    std::vector<Gpu *> devices;
    devices_.reserve(cfg_.numGpus);
    for (uint32_t d = 0; d < cfg_.numGpus; ++d) {
        devices_.push_back(std::make_unique<Gpu>(cfg_.gpu));
        Gpu &gpu = *devices_.back();
        gpu.setDeviceId(d);
        gpu.setStreamIdBase(d * cfg_.streamIdStride);
        gpu.setRemotePort(fabric_.get());
        fabric_->attachDevice(d, &gpu);
        devices.push_back(&gpu);
    }
    machine_ = std::make_unique<Machine>(std::move(devices), fabric_.get());
}

MultiGpu::~MultiGpu() = default;

Gpu &
MultiGpu::device(uint32_t d)
{
    fatal_if(d >= devices_.size(), "device %u out of range", d);
    return *devices_[d];
}

const Gpu &
MultiGpu::device(uint32_t d) const
{
    fatal_if(d >= devices_.size(), "device %u out of range", d);
    return *devices_[d];
}

Addr
MultiGpu::windowBase(uint32_t d) const
{
    fatal_if(d >= cfg_.numGpus, "device %u out of range", d);
    return static_cast<Addr>(d) * cfg_.windowBytes;
}

AddressSpace
MultiGpu::heapFor(uint32_t d, Addr local_base) const
{
    fatal_if(local_base >= cfg_.windowBytes,
             "heap base beyond the device window");
    return AddressSpace(windowBase(d) + local_base);
}

MultiGpu::RunResult
MultiGpu::run(Cycle max_cycles, const integrity::RunOptions &opts)
{
    RunResult result;
    static_cast<Gpu::RunResult &>(result) = machine_->run(max_cycles, opts);
    if (result.hang) {
        result.violations = result.hang->violations;
    }
    return result;
}

MultiGpu::RunResult
MultiGpu::run(Cycle max_cycles, Cycle audit_interval)
{
    integrity::RunOptions opts;
    opts.auditInterval = audit_interval;
    return run(max_cycles, opts);
}

} // namespace mgpu
} // namespace crisp
