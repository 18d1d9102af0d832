#ifndef CRISP_GPU_MACHINE_HPP
#define CRISP_GPU_MACHINE_HPP

#include <vector>

#include "gpu/gpu.hpp"

namespace crisp
{

/**
 * The simulator's one run loop: steps N >= 1 Gpu devices plus an
 * optional inter-GPU fabric in lockstep (fabric first, then devices in
 * id order), as one synchronization domain. Gpu::run is a one-device
 * Machine and MultiGpu::run an N-device one, so every run gets the same
 * protections: idle fast-forward (always on except under fault
 * injection), the watchdog and invariant checkers with a HangReport
 * naming GPU and SM (with each attached sink's last events), the counter
 * audit and cancellation. A Machine only points at its devices and
 * fabric, so constructing one per run is cheap.
 */
class Machine
{
  public:
    /**
     * @param devices every GPU in device-id order (not owned; at least
     *        one, and more than one only with a fabric).
     * @param fabric the inter-GPU fabric (not owned; optional).
     */
    explicit Machine(std::vector<Gpu *> devices,
                     RemoteMemPort *fabric = nullptr);

    /** Advance one cycle: the fabric, then every device in id order. */
    void tick();

    /** Every device drained and no packet left on the fabric. */
    bool done() const;

    Cycle now() const { return devices_.front()->now(); }

    /** Run until done, @p max_cycles, a stop request or a hang. */
    Gpu::RunResult run(Cycle max_cycles,
                       const integrity::RunOptions &opts);

    /**
     * Union of every device's per-stream statistics (disjoint stream-id
     * ranges make this a disjoint merge for local counters; remote
     * traffic genuinely splits one stream across registries, which is
     * why machine-wide identities only close on the merged view).
     */
    StatsRegistry mergedStats() const;

  private:
    Cycle nextWakeCycle() const;
    void fastForwardTo(Cycle target);
    uint64_t progressSignature() const;
    bool progressImminent() const;
    void checkInvariants(
        Cycle leak_age,
        std::vector<integrity::InvariantViolation> &violations,
        std::vector<integrity::HangReport::MshrLeakRow> &leaks) const;
    void audit(std::vector<integrity::InvariantViolation> &out);
    integrity::HangReport
    buildHangReport(Cycle last_progress, std::string reason,
                    std::vector<integrity::InvariantViolation> violations,
                    std::vector<integrity::HangReport::MshrLeakRow> leaks)
        const;

    std::vector<Gpu *> devices_;
    RemoteMemPort *fabric_;
    /** Every device's SMs and L2, in device order (checker inputs). */
    std::vector<const Sm *> sms_;
    std::vector<const L2Subsystem *> l2s_;
    /** Reused across audits so a tight cadence does not allocate. */
    SmallFlatMap<StreamId, uint64_t> auditScratch_;
    SmallFlatMap<StreamId, uint64_t> fabricInFlight_;
};

} // namespace crisp

#endif // CRISP_GPU_MACHINE_HPP
