#ifndef CRISP_CORE_SM_CONFIG_HPP
#define CRISP_CORE_SM_CONFIG_HPP

#include <cstdint>

#include "common/types.hpp"
#include "isa/opcode.hpp"

namespace crisp
{

namespace sm_config_detail
{
/** Op class with no such parameter: report and abort (never returns). */
[[noreturn]] void badOpClass(const char *what, OpClass cls);
} // namespace sm_config_detail

/**
 * Per-SM microarchitecture parameters (Table II row "per SM").
 *
 * Defaults follow the paper's Ampere-class configuration: 64 warp slots, 4
 * schedulers, 4 units of each execution class, 64K registers, and a unified
 * L1 data cache shared with shared memory.
 */
struct SmConfig
{
    uint32_t maxWarps = 64;
    uint32_t maxCtas = 32;
    uint32_t numSchedulers = 4;
    uint32_t registers = 65536;
    uint32_t smemBytes = 100 * 1024;

    /** Unified L1 data cache (texture accesses use this cache too). */
    uint64_t l1SizeBytes = 128 * 1024;
    uint32_t l1Ways = 8;
    Cycle l1HitLatency = 32;
    uint32_t l1MshrEntries = 48;
    uint32_t l1MshrTargets = 8;
    /** Line-requests the L1 can accept per cycle (LDST ports). */
    uint32_t l1PortsPerCycle = 4;
    /** In-flight memory instructions the LDST unit can queue. */
    uint32_t ldstQueueDepth = 32;
    /**
     * Upper bound on refused-request retries re-sent to the fabric per
     * cycle; must be at least 1 (the SM rejects 0). Bounding the drain keeps
     * a deeply backpressured SM from spending its whole cycle flushing
     * the retry queue while fresh requests livelock behind it. With the
     * round-robin fabric arbiter interleaving SMs one request per grant
     * round, a finite cap is the sane default: 8 retries covers two
     * l1PortsPerCycle generations of refused traffic without letting one
     * SM's backlog monopolize the bank queues that drain each cycle.
     */
    uint32_t maxFabricRetriesPerCycle = 8;

    /** Execution unit counts (one pool per OpClass). */
    uint32_t fp32Units = 4;
    uint32_t intUnits = 4;
    uint32_t sfuUnits = 4;
    uint32_t tensorUnits = 4;

    /** Result latencies (cycles from issue to writeback). */
    Cycle fp32Latency = 4;
    Cycle intLatency = 4;
    Cycle sfuLatency = 21;
    Cycle tensorLatency = 16;
    Cycle smemLatency = 24;
    Cycle constLatency = 8;

    /** Initiation intervals (cycles a unit is blocked per instruction). */
    uint32_t fp32Interval = 1;
    uint32_t intInterval = 1;
    uint32_t sfuInterval = 8;
    uint32_t tensorInterval = 2;

    /** Shared memory banks for the conflict model. */
    uint32_t smemBanks = 32;

    // Inline: these sit on the per-issue hot path (one call per issued
    // instruction); the error paths live out of line in sm_config.cpp.
    uint32_t
    unitsFor(OpClass cls) const
    {
        switch (cls) {
          case OpClass::FP32: return fp32Units;
          case OpClass::INT: return intUnits;
          case OpClass::SFU: return sfuUnits;
          case OpClass::Tensor: return tensorUnits;
          default: sm_config_detail::badOpClass("execution unit pool", cls);
        }
    }
    Cycle
    latencyFor(OpClass cls) const
    {
        switch (cls) {
          case OpClass::FP32: return fp32Latency;
          case OpClass::INT: return intLatency;
          case OpClass::SFU: return sfuLatency;
          case OpClass::Tensor: return tensorLatency;
          case OpClass::MemShared: return smemLatency;
          case OpClass::MemConst: return constLatency;
          default: sm_config_detail::badOpClass("fixed latency", cls);
        }
    }
    uint32_t
    intervalFor(OpClass cls) const
    {
        switch (cls) {
          case OpClass::FP32: return fp32Interval;
          case OpClass::INT: return intInterval;
          case OpClass::SFU: return sfuInterval;
          case OpClass::Tensor: return tensorInterval;
          default: sm_config_detail::badOpClass("initiation interval", cls);
        }
    }
};

} // namespace crisp

#endif // CRISP_CORE_SM_CONFIG_HPP
