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
 * The default (one thread, no staging) steps the due SMs serially on the
 * calling thread, their stats landing directly. On any engine the
 * fabric-facing memory phase runs under the GPU's arbiter ahead of the
 * SM step pass, and CTA completions are delivered at that pass's merge
 * in SM-id order. Raising `threads` shards SM stepping across one
 * persistent worker pool per machine with deterministic merge points, so
 * simulation outputs are identical for any thread count (see
 * docs/ARCHITECTURE.md, "The parallel cycle engine").
 * Idle fast-forward is not a setting: after every tick the run loop
 * jumps to just before the machine's earliest wake cycle, on any engine
 * (see docs/ARCHITECTURE.md, "Idle fast-forward").
 */
struct EngineConfig
{
    /**
     * Worker lanes stepping SM shards (including the calling thread).
     * 0 and 1 both mean serial execution. Values above the SM count are
     * clamped: an SM is the unit of sharding. Values above the host's
     * core count are also clamped (oversubscribed lanes time-slice one
     * core and the per-cycle barrier makes that strictly slower than
     * serial) unless allowOversubscribe is set.
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
     * Stage SM step stats even when stepping serially. With more than
     * one thread staging is always on; this knob exists so determinism
     * tests can run the staged path at one thread and prove the outputs
     * do not depend on the thread count.
     */
    bool stagedFabric = false;

    /** True when SM steps write stats to per-SM shadows that the merge
     *  folds into the shared registry. */
    bool staged() const { return threads > 1 || stagedFabric; }

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
