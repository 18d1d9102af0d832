#ifndef CRISP_AUDIT_AUDIT_HPP
#define CRISP_AUDIT_AUDIT_HPP

#include <vector>

#include "common/stats.hpp"
#include "core/sm.hpp"
#include "integrity/report.hpp"
#include "mem/l2_subsystem.hpp"

namespace crisp
{

/**
 * Counter-conservation audit.
 *
 * The integrity layer (src/integrity) detects a machine that stops
 * making progress; this layer detects a machine that keeps running but
 * *counts wrong*. Every identity below holds exactly at a cycle
 * boundary, so any violation is a real accounting bug (or an injected
 * fault), never a race with in-flight work: requests that have been
 * counted on one side but not yet on the other are balanced explicitly
 * (bank queues, fabric-retry queues, pending DRAM fills).
 *
 * Checkers append integrity::InvariantViolation rows with "counter-*"
 * check names so the run loop folds them into the same HangReport
 * pipeline as the watchdog. Enable via
 * integrity::RunOptions::auditInterval.
 */
namespace audit
{

/**
 * Every counter-conservation identity of a machine of one or more GPUs.
 * Remote traffic splits one stream's counters across devices — the
 * issuing device holds the L1 side, the owning device the L2/DRAM
 * side — so the identities close over the union: @p stats is the
 * per-stream union of every device's registry (a single GPU's own
 * registry), @p sms every device's SMs, @p l2s every device's L2, and
 * @p fabric_in_flight the requests still traversing the inter-GPU
 * fabric per stream (empty for one GPU). The identities:
 *  - per stream: l2Accesses == l2Hits + l2MshrMerges + dramReads (every
 *    L2 access is exactly one of: tag hit, merged into a pending fill,
 *    or a primary miss that reads DRAM); l1Hits + l1MshrMerges <=
 *    l1Accesses; firstCycle <= lastCycle when both are set;
 *  - bank/stream parity: the L2s' accesses (tag probes + MSHR merges)
 *    and hits equal the per-stream l2Accesses and l2Hits sums — the
 *    identity a fill-time double-count breaks;
 *  - L1<->L2 conservation, per stream: every L1 miss (accesses minus
 *    hits minus MSHR merges) is an L2 access already, queued in a bank,
 *    parked in an SM's fabric-retry queue, or on the fabric;
 *  - DRAM read / fill pairing: dramReads == fills installed + fills
 *    pending (a dropped fill breaks this forever), and L2 MSHR primary
 *    allocations == fills served + entries in use.
 * @p scratch is reused for the in-flight tally so a periodic cadence
 * does not allocate.
 */
void auditAll(const StatsRegistry &stats,
              const std::vector<const Sm *> &sms,
              const std::vector<const L2Subsystem *> &l2s,
              const SmallFlatMap<StreamId, uint64_t> &fabric_in_flight,
              Cycle now, SmallFlatMap<StreamId, uint64_t> &scratch,
              std::vector<integrity::InvariantViolation> &out);

/** auditAll for a single GPU. */
void auditAll(const StatsRegistry &stats,
              const std::vector<const Sm *> &sms, const L2Subsystem &l2,
              Cycle now, std::vector<integrity::InvariantViolation> &out);

} // namespace audit
} // namespace crisp

#endif // CRISP_AUDIT_AUDIT_HPP
