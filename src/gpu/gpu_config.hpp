#ifndef CRISP_GPU_GPU_CONFIG_HPP
#define CRISP_GPU_GPU_CONFIG_HPP

#include <string>

#include "core/sm_config.hpp"
#include "mem/l2_subsystem.hpp"

namespace crisp
{

/**
 * Whole-GPU configuration (the paper's Table II).
 *
 * Two presets are provided: the NVIDIA RTX 3070 desktop GPU and the Jetson
 * Orin mobile GPU, matching the paper's simulation configurations: SM count,
 * 64 warps and 4 schedulers per SM, 4 units of each execution class, 64K
 * registers per SM, a 4 MB L2 and the respective DRAM bandwidths converted
 * into bytes per core cycle.
 */
struct GpuConfig
{
    std::string name = "generic";
    uint32_t numSms = 16;
    double coreClockMhz = 1000.0;
    std::string memoryDesc = "DRAM";
    double memoryBandwidthGBs = 256.0;

    SmConfig sm;
    L2Config l2;

    /** DRAM bandwidth expressed in bytes per core clock cycle. */
    double dramBytesPerCycle() const
    {
        return memoryBandwidthGBs * 1e9 / (coreClockMhz * 1e6);
    }

    /** Convert a cycle count into milliseconds of simulated time. */
    double cyclesToMs(Cycle cycles) const
    {
        return static_cast<double>(cycles) / (coreClockMhz * 1e3);
    }

    /** Finalize derived fields (DRAM/icnt bandwidth); call after edits. */
    void finalize();

    /** Desktop GPU preset (Table II, RTX 3070). */
    static GpuConfig rtx3070();

    /** Mobile GPU preset (Table II, Jetson Orin). */
    static GpuConfig jetsonOrin();
};

} // namespace crisp

#endif // CRISP_GPU_GPU_CONFIG_HPP
