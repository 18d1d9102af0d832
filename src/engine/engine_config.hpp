#ifndef CRISP_ENGINE_ENGINE_CONFIG_HPP
#define CRISP_ENGINE_ENGINE_CONFIG_HPP

#include <cstdint>

namespace crisp
{
namespace engine
{

/**
 * Cycle-engine configuration: how the per-cycle work of a machine (one
 * GPU or a MultiGpu) is scheduled onto host threads.
 *
 * Every engine runs the same tick. The fabric-facing memory phase runs
 * under the GPU's arbiter ahead of the SM step pass, the step pass steps
 * the due SMs, and its merge delivers CTA completions in SM-id order. An
 * SM writes its stats into its own per-stream blocks, which
 * Gpu::stats() folds into the shared registry on read. Raising `threads`
 * only shards the step pass across one persistent worker pool per
 * machine, so simulation outputs are identical for any thread count (see
 * docs/ARCHITECTURE.md, "The parallel cycle engine").
 * Idle fast-forward is not a setting: after every tick the run loop
 * jumps to just before the machine's earliest wake cycle, on any engine
 * (see docs/ARCHITECTURE.md, "Idle fast-forward").
 */
struct EngineConfig
{
    /**
     * Worker lanes stepping SM shards (including the calling thread).
     * 0 and 1 both mean the step pass runs inline on the calling thread.
     * Values above the SM count are clamped: an SM is the unit of
     * sharding. Values above the host's core count are also clamped
     * (oversubscribed lanes time-slice one core and the per-cycle
     * barrier makes that strictly slower than serial) unless
     * allowOversubscribe is set.
     */
    uint32_t threads = 1;

    /**
     * Permit more lanes than host cores. Engine outputs are identical
     * for any thread count, so determinism/stress tests set this to
     * exercise the multi-lane code paths on small hosts; performance
     * runs leave it off and get the clamp.
     */
    bool allowOversubscribe = false;

    /**
     * Has no effect. The benchmark harness (perfbench/harness.cpp) still
     * sets it, so the field stays until the benchmark change that
     * settles ROADMAP item 1 deletes it.
     */
    bool stagedFabric = false;

    /**
     * Lanes this engine runs on a machine whose devices have @p sms SMs
     * each: `threads` clamped to [1, sms] and, unless allowOversubscribe,
     * to the host's cores. A machine clamps once and shares one pool of
     * that many lanes across all its devices.
     */
    uint32_t lanesFor(uint32_t sms) const;
};

} // namespace engine
} // namespace crisp

#endif // CRISP_ENGINE_ENGINE_CONFIG_HPP
