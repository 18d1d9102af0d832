#ifndef CRISP_INTEGRITY_REPORT_HPP
#define CRISP_INTEGRITY_REPORT_HPP

#include <atomic>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

namespace integrity
{

/**
 * Watchdog and invariant-checking knobs for a machine run (Gpu::run,
 * MultiGpu::run).
 *
 * A cycle simulator's worst failure mode is the silent hang: a lost
 * memory response or a mis-wired dependency makes run() spin to
 * max_cycles and return completed=false with zero diagnostics. With a
 * non-zero checkInterval the GPU audits itself while running and stops
 * with a HangReport the moment an invariant breaks or forward progress
 * ceases.
 */
struct RunOptions
{
    /** Cycles between integrity checks; 0 disables the integrity layer. */
    Cycle checkInterval = 0;

    /** What to do when a hang or invariant violation is detected. */
    enum class OnHang
    {
        Panic,   ///< Abort with the rendered report (CI-friendly).
        Report   ///< Stop the run and return the report in RunResult.
    };
    OnHang onHang = OnHang::Report;

    /**
     * Cycles without any forward progress (issued instruction, launched
     * CTA, completed kernel, delivered memory response) before the run is
     * declared hung. 0 derives a default from the configured memory
     * round-trip latency.
     */
    Cycle hangThreshold = 0;

    /**
     * Age in cycles past which an *orphaned* MSHR entry is reported as
     * leaked. Entries with live traffic anywhere between the SM and
     * DRAM are never reported, whatever their age — saturated DRAM can
     * starve a legitimate request well past any fixed threshold. 0
     * derives a default matching hangThreshold.
     */
    Cycle mshrLeakAge = 0;

    /** Run the cross-layer invariant checkers on every watchdog tick. */
    bool checkInvariants = true;

    /**
     * Bounded-stall invariant: with the round-robin fabric arbiter, no
     * parked retry should wait longer than a small multiple of the
     * queue-depth-derived bound numSms * ldstQueueDepth (every other SM
     * draining a full egress queue ahead of it, one grant per round).
     * A retry older than retryWaitBoundFactor times that bound is
     * reported as a "fabric-retry-starvation" violation — either the
     * arbiter lost fairness or the fabric wedged. 0 disables the check.
     */
    uint32_t retryWaitBoundFactor = 16;

    /**
     * Cycles between counter-conservation audits (crisp::audit); 0
     * disables auditing. Independent of checkInterval so the audit can
     * run without the watchdog (and vice versa): fault-matrix tests pin
     * which detector fires first, and benches want the audit alone. A
     * violated identity stops the run with a HangReport whose violations
     * carry "counter-*" check names.
     */
    Cycle auditInterval = 0;

    /**
     * Cooperative cancellation token (optional; not owned). Checked at
     * tick granularity by the run loop: another thread storing true stops
     * the run before its next tick with RunResult::cancelled set and
     * all counters coherent at a cycle boundary, so a wall-clock
     * deadline or a user interrupt can stop a simulation promptly
     * without tearing down the process.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** One failed integrity check. */
struct InvariantViolation
{
    std::string check;    ///< "mem-conservation", "mshr-leak", ...
    std::string detail;   ///< Human-readable specifics.
    Cycle cycle = 0;      ///< Cycle the violation was detected.
};

/**
 * Everything the watchdog knows about *why* nothing is committing,
 * captured at detection time. Structured fields for tests and tooling;
 * render() produces the human-readable tables.
 */
struct HangReport
{
    Cycle detectedAt = 0;
    Cycle lastProgressAt = 0;
    std::string reason;
    std::vector<InvariantViolation> violations;

    /** Per-SM occupancy and dominant stall reason. */
    struct SmRow
    {
        uint32_t device = 0;         ///< GPU of a multi-GPU machine.
        uint32_t smId = 0;
        uint32_t activeWarps = 0;
        uint32_t activeCtas = 0;
        uint32_t atBarrier = 0;
        uint32_t waitScoreboard = 0;
        uint32_t waitExecUnit = 0;
        uint32_t waitSmem = 0;
        uint32_t waitLdst = 0;
        uint32_t ready = 0;
        uint32_t l1MshrEntries = 0;
        uint64_t ldstQueueDepth = 0;
        uint64_t fabricRetryDepth = 0;
        Cycle fabricRetryMaxWait = 0;
        Cycle fabricRetryOldestAge = 0;
        uint64_t outstandingLoads = 0;
        Addr oldestMissLine = 0;
        Cycle oldestMissAge = 0;
        bool issueFrozen = false;
        std::string dominantStall;
    };
    std::vector<SmRow> sms;

    /** Per-stream queue state and what blocks the front kernel. */
    struct StreamRow
    {
        StreamId id = 0;
        std::string name;
        uint64_t queuedKernels = 0;
        uint64_t activeKernels = 0;
        KernelId blockingDep = 0;    ///< 0 = front kernel is unblocked.
        std::string frontKernel;
        std::string blockReason;
    };
    std::vector<StreamRow> streams;

    /** An outstanding MSHR entry old enough to be a leak. */
    struct MshrLeakRow
    {
        uint32_t device = 0;         ///< GPU of a multi-GPU machine.
        std::string level;           ///< "L1" or "L2".
        uint32_t unit = 0;           ///< SM id (L1) or bank id (L2).
        Addr line = 0;
        Cycle age = 0;
        uint32_t targets = 0;
        std::vector<uint32_t> smIds; ///< SMs awaiting the line's data.
    };
    std::vector<MshrLeakRow> mshrLeaks;

    /** One GPU's memory-system queue depths and conservation counters. */
    struct MemRow
    {
        uint32_t device = 0;
        uint64_t queuedRequests = 0;
        uint64_t queuedReads = 0;
        uint64_t mshrEntries = 0;
        uint64_t mshrResponseTargets = 0;
        uint64_t pendingFills = 0;
        uint64_t pendingResponses = 0;
        uint64_t readsAccepted = 0;
        uint64_t responsesDelivered = 0;
        uint64_t dramRequests = 0;
        Cycle requestLinkBacklog = 0;
        Cycle responseLinkBacklog = 0;
        std::vector<size_t> bankQueueDepths;
    };
    /** One row per GPU, in device order. */
    std::vector<MemRow> mem;

    /**
     * Human renderings of the last telemetry events before the stall
     * (oldest first); empty when no GPU of the machine had a sink
     * attached (Gpu::setTelemetry).
     */
    std::vector<std::string> recentEvents;

    /** Render the report as column-aligned tables for a terminal. */
    std::string render() const;
};

} // namespace integrity
} // namespace crisp

#endif // CRISP_INTEGRITY_REPORT_HPP
