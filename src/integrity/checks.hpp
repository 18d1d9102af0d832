#ifndef CRISP_INTEGRITY_CHECKS_HPP
#define CRISP_INTEGRITY_CHECKS_HPP

#include <functional>
#include <vector>

#include "core/sm.hpp"
#include "integrity/report.hpp"
#include "mem/l2_subsystem.hpp"

namespace crisp
{
namespace integrity
{

/**
 * Cross-layer invariant checkers over the machine's memory fabric and
 * cores. The run loop runs them on every watchdog tick; each appends
 * violations instead of panicking so the caller decides the on-hang
 * policy and can bundle everything into one HangReport.
 */

/**
 * Conservation of in-flight memory reads over a machine of one or more
 * GPUs, checked two ways:
 *  1. cumulative, per L2: reads accepted == responses delivered +
 *     outstanding (bank queues + MSHR targets + response queue);
 *  2. structural, cross-layer, machine-wide: every outstanding L1 MSHR
 *     line of @p sms (every SM of every GPU) must have exactly one
 *     representative in an SM's retry queue, somewhere in one of
 *     @p l2s, or among the @p fabric_reads reads (requests and their
 *     responses) on the inter-GPU fabric.
 * A dropped response breaks both; a leaked-but-consistent MSHR entry
 * breaks neither (the age-based leak scan exists for that).
 */
void checkConservation(const std::vector<const Sm *> &sms,
                       const std::vector<const L2Subsystem *> &l2s,
                       uint64_t fabric_reads, Cycle now,
                       std::vector<InvariantViolation> &out);

/** Per-SM resource accounting audit (tracked vs recomputed vs quota,
 *  every parked warp and LDST head, the live-warp mask). */
void checkSmAccounting(const std::vector<const Sm *> &sms, Cycle now,
                       std::vector<InvariantViolation> &out);

/** The L2's counterpart: busy-bank flags and count, due-queue order
 *  (see L2Subsystem::auditWorkSets). One "l2-work-sets" violation. */
void checkL2WorkSets(const L2Subsystem &l2, Cycle now,
                     std::vector<InvariantViolation> &out);

/**
 * Bounded-stall invariant over the fabric-retry queues: the round-robin
 * arbiter guarantees every SM a grant per round, so no parked request
 * should ever wait anywhere near @p bound cycles (the caller derives it
 * from the arbitration worst case times a safety factor; see
 * RunOptions::retryWaitBoundFactor). One "fabric-retry-starvation"
 * violation per offending SM, naming the age and the bound.
 */
void checkBoundedRetryWait(const std::vector<const Sm *> &sms, Cycle now,
                           Cycle bound,
                           std::vector<InvariantViolation> &out);

/**
 * MSHR leak scan over every SM's L1 MSHR and the L2's banked MSHRs. An
 * entry is leaked when it is older than @p max_age *and* orphaned —
 * nothing between the SM and DRAM (fabric-retry queue, bank queues,
 * merged L2 MSHR target, pending fill or response) will ever complete
 * it. Age alone is not enough: under DRAM saturation a live request can
 * legitimately queue for tens of thousands of cycles (the divergent-
 * gather scenarios do this), while a dropped fill or response leaves no
 * in-flight trace. Returns structured rows (for the HangReport) and
 * appends one violation per leaked entry, naming the line address and
 * the owning SM/bank — the acceptance-test contract for dropped-fill
 * hangs. On a GPU of a multi-GPU machine, @p remote_in_flight(sm, line)
 * reports an L1 line still live beyond this GPU (on the inter-GPU
 * fabric or in a peer's L2).
 */
std::vector<HangReport::MshrLeakRow>
findMshrLeaks(const std::vector<const Sm *> &sms, const L2Subsystem &l2,
              Cycle now, Cycle max_age,
              std::vector<InvariantViolation> *out,
              const std::function<bool(uint32_t sm, Addr line)>
                  &remote_in_flight = nullptr);

/** Build a HangReport SM row from a live SM. */
HangReport::SmRow smRow(const Sm &sm, Cycle now);

/** Fill the report's memory-system row from the L2 subsystem. */
HangReport::MemRow memRow(const L2Subsystem &l2, Cycle now);

} // namespace integrity
} // namespace crisp

#endif // CRISP_INTEGRITY_CHECKS_HPP
