#include "gpu/machine.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "audit/audit.hpp"
#include "common/logging.hpp"
#include "integrity/checks.hpp"
#include "telemetry/sink.hpp"

namespace crisp
{

namespace
{

/** Telemetry events attached to a hang report, newest last. */
constexpr size_t kHangReportEvents = 16;

/**
 * Bounded-stall invariant: with the round-robin fabric arbiter, no
 * parked retry should wait longer than a small multiple of the
 * queue-depth-derived bound numSms * ldstQueueDepth (every other SM
 * draining a full egress queue ahead of it, one grant per round). A
 * retry older than this factor times that bound is reported as a
 * "fabric-retry-starvation" violation: either the arbiter lost
 * fairness or the fabric wedged.
 */
constexpr Cycle kRetryWaitBoundFactor = 16;

} // namespace

Machine::Machine(std::vector<Gpu *> devices, RemoteMemPort *fabric)
    : devices_(std::move(devices)), fabric_(fabric)
{
    fatal_if(devices_.empty(), "a machine needs at least one GPU");
    fatal_if(devices_.size() > 1 && fabric_ == nullptr,
             "a machine of %zu GPUs needs an inter-GPU fabric",
             devices_.size());
    for (const Gpu *gpu : devices_) {
        const std::vector<const Sm *> sms = gpu->constSms();
        sms_.insert(sms_.end(), sms.begin(), sms.end());
        l2s_.push_back(&gpu->l2());
    }
}

void
Machine::tick()
{
    // Fabric first: deliveries land in bank queues / SMs before each
    // device's own memory phase and L2 step of the same cycle, mirroring
    // the submit-before-step order inside one device.
    if (fabric_ != nullptr) {
        fabric_->step(now() + 1);
    }
    for (Gpu *gpu : devices_) {
        gpu->tick();
    }
}

bool
Machine::done() const
{
    if (fabric_ != nullptr && !fabric_->idle()) {
        return false;
    }
    return std::all_of(devices_.begin(), devices_.end(),
                       [](const Gpu *gpu) { return gpu->done(); });
}

StatsRegistry
Machine::mergedStats() const
{
    StatsRegistry merged;
    for (const Gpu *gpu : devices_) {
        merged.merge(gpu->stats());
    }
    return merged;
}

Cycle
Machine::nextWakeCycle() const
{
    // A device answers no earlier than the next cycle; one that gives it
    // ends the scan.
    Cycle wake = kNeverCycle;
    for (const Gpu *gpu : devices_) {
        wake = std::min(wake, gpu->nextWakeCycle());
        if (wake == now() + 1) {
            return wake;
        }
    }
    if (fabric_ != nullptr) {
        wake = std::min(wake, fabric_->nextEventCycle(now()));
    }
    return wake;
}

void
Machine::fastForwardTo(Cycle target)
{
    for (Gpu *gpu : devices_) {
        gpu->fastForwardTo(target);
    }
}

uint64_t
Machine::progressSignature() const
{
    // Every component is a monotone counter sum, so the total moves
    // exactly when some device makes progress or a packet moves on the
    // fabric.
    uint64_t sig = fabric_ != nullptr ? fabric_->workCount() : 0;
    for (const Gpu *gpu : devices_) {
        sig += gpu->progressSignature();
    }
    return sig;
}

bool
Machine::progressImminent() const
{
    return std::any_of(devices_.begin(), devices_.end(),
                       [](const Gpu *gpu) {
                           return gpu->progressImminent();
                       });
}

void
Machine::checkInvariants(
    Cycle leak_age,
    std::vector<integrity::InvariantViolation> &violations,
    std::vector<integrity::HangReport::MshrLeakRow> &leaks) const
{
    const Cycle cycle = now();
    integrity::checkConservation(
        sms_, l2s_, fabric_ != nullptr ? fabric_->readsInFlight() : 0,
        cycle, violations);
    for (const Gpu *gpu : devices_) {
        const std::vector<const Sm *> sms = gpu->constSms();
        const uint32_t device = gpu->deviceId();
        integrity::checkSmAccounting(sms, cycle, violations);
        integrity::checkL2WorkSets(gpu->l2(), cycle, violations);
        gpu->checkMemPhaseSet(violations);
        std::function<bool(uint32_t, Addr)> remote;
        if (fabric_ != nullptr) {
            remote = [this, device](uint32_t sm, Addr line) {
                return fabric_->lineInFlightFor(device, sm, line);
            };
        }
        for (integrity::HangReport::MshrLeakRow &row :
             integrity::findMshrLeaks(sms, gpu->l2(), cycle, leak_age,
                                      &violations, remote)) {
            row.device = device;
            leaks.push_back(std::move(row));
        }
        // Bounded-stall bound: the arbiter's worst case has every other
        // SM draining a full egress queue ahead of a parked request, one
        // grant per round, times a safety factor.
        integrity::checkBoundedRetryWait(
            sms, cycle,
            kRetryWaitBoundFactor * gpu->numSms() *
                gpu->config().sm.ldstQueueDepth,
            violations);
        gpu->checkStreamLiveness(violations);
    }
}

void
Machine::audit(std::vector<integrity::InvariantViolation> &out)
{
    // One GPU audits its own registry; a machine audits the union.
    const StatsRegistry merged =
        fabric_ != nullptr ? mergedStats() : StatsRegistry{};
    const StatsRegistry &stats =
        fabric_ != nullptr ? merged : devices_.front()->stats();
    fabricInFlight_.clear();
    if (fabric_ != nullptr) {
        fabric_->countInFlightByStream(fabricInFlight_);
    }
    audit::auditAll(stats, sms_, l2s_, fabricInFlight_, now(),
                    auditScratch_, out);
    if (fabric_ != nullptr) {
        fabric_->auditCounters(stats, now(), out);
    }
}

integrity::HangReport
Machine::buildHangReport(
    Cycle last_progress, std::string reason,
    std::vector<integrity::InvariantViolation> violations,
    std::vector<integrity::HangReport::MshrLeakRow> leaks) const
{
    integrity::HangReport report;
    report.detectedAt = now();
    report.lastProgressAt = last_progress;
    report.reason = std::move(reason);
    report.violations = std::move(violations);
    report.mshrLeaks = std::move(leaks);
    std::vector<const telemetry::TelemetrySink *> sinks;
    for (const Gpu *gpu : devices_) {
        gpu->describe(report);
        const telemetry::TelemetrySink *sink = gpu->telemetry();
        if (sink != nullptr &&
            std::find(sinks.begin(), sinks.end(), sink) == sinks.end()) {
            sinks.push_back(sink);
        }
    }
    for (const telemetry::TelemetrySink *sink : sinks) {
        for (const telemetry::Event &e : sink->lastEvents(kHangReportEvents)) {
            report.recentEvents.push_back(sink->describe(e));
        }
    }
    return report;
}

Gpu::RunResult
Machine::run(Cycle max_cycles, const integrity::RunOptions &opts)
{
    Gpu::RunResult result;
    const Cycle interval = opts.checkInterval;

    // Auto thresholds scale with the slowest memory round trip in the
    // machine, so a clean-but-slow machine (deep queues, DRAM
    // contention) never trips the watchdog while a genuine hang is
    // caught within a few round trips.
    Cycle roundtrip = 0;
    for (const Gpu *gpu : devices_) {
        const L2Config &l2 = gpu->config().l2;
        roundtrip = std::max(roundtrip, l2.l2Latency + 2 * l2.icntLatency +
                                            l2.dramLatency);
    }
    const Cycle hang_threshold =
        opts.hangThreshold ? opts.hangThreshold : 8 * roundtrip + 10000;
    const Cycle leak_age =
        opts.mshrLeakAge ? opts.mshrLeakAge : hang_threshold;

    uint64_t last_sig = progressSignature();
    Cycle last_progress = now();
    Cycle next_check = now() + interval;
    const Cycle audit_interval = opts.auditInterval;
    Cycle next_audit = now() + audit_interval;

    // Stop with a HangReport in the result.
    auto stop = [&](bool hung,
                    std::vector<integrity::InvariantViolation> violations,
                    std::vector<integrity::HangReport::MshrLeakRow> leaks) {
        std::string reason =
            hung ? logging_detail::formatMessage(
                       "no forward progress for %" PRIu64 " cycles",
                       now() - last_progress)
                 : "invariant violation: " + violations.front().check;
        result.hang = buildHangReport(last_progress, std::move(reason),
                                      std::move(violations),
                                      std::move(leaks));
    };

    // Idle fast-forward, never under fault injection (a frozen SM's
    // "idle" is exactly what the watchdog must observe tick by tick).
    const bool fast_forward =
        std::none_of(devices_.begin(), devices_.end(), [](const Gpu *gpu) {
            return gpu->faultInjector_ != nullptr;
        });

    while (now() < max_cycles) {
        if (done()) {
            result.completed = true;
            break;
        }
        // Cooperative cancellation: a relaxed load per tick (the flag
        // carries no data, only the stop request), checked before the
        // tick so the machine stops at a clean cycle boundary with every
        // counter identity intact — the audit checkers pass on a
        // cancelled run exactly as they do mid-flight.
        if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
            result.cancelled = true;
            break;
        }
        tick();
        if (fast_forward) {
            // Jump to just before the earliest cycle anything can
            // happen, clamped so the watchdog still runs at its exact
            // cadence and the run still ends at max_cycles. Every wake
            // term is exact or early after any tick, so a busy tick needs
            // no other test. kNeverCycle (a dead machine) is left to the
            // watchdog at normal speed. A drained machine must not jump:
            // its sampler still names a next row, and the run would end
            // past its last cycle. The counter audit does not clamp the
            // jump — its identities depend only on counter state, which
            // is frozen across idle ticks, and an overdue audit fires on
            // the first tick after the jump anyway.
            const Cycle wake = nextWakeCycle();
            Cycle limit = max_cycles;
            if (interval != 0) {
                limit = std::min(limit, next_check);
            }
            if (wake != kNeverCycle && std::min(wake, limit) > now() + 1 &&
                !done()) {
                fastForwardTo(std::min(wake, limit) - 1);
            }
        }
        const bool check_due = interval != 0 && now() >= next_check;
        const bool audit_due =
            audit_interval != 0 && now() >= next_audit;
        if (!check_due && !audit_due) {
            continue;
        }

        std::vector<integrity::InvariantViolation> violations;
        std::vector<integrity::HangReport::MshrLeakRow> leaks;
        bool hung = false;
        if (check_due) {
            next_check = now() + interval;
            const uint64_t sig = progressSignature();
            if (sig != last_sig) {
                last_sig = sig;
                last_progress = now();
            }
            checkInvariants(leak_age, violations, leaks);
            hung = now() - last_progress >= hang_threshold &&
                   !progressImminent();
        }
        if (audit_due) {
            next_audit = now() + audit_interval;
            audit(violations);
        }
        if (!violations.empty() || hung) {
            stop(hung, std::move(violations), std::move(leaks));
            break;
        }
    }
    // Sleeping SMs credit their active cycles lazily: settle them so the
    // counters are exact however the run ended.
    for (Gpu *gpu : devices_) {
        gpu->settleCycles();
    }
    // Audit the final state too, so a drained, capped or cancelled run
    // ends on a checked cycle boundary.
    if (audit_interval != 0 && !result.hang) {
        std::vector<integrity::InvariantViolation> violations;
        audit(violations);
        if (!violations.empty()) {
            result.completed = false;
            stop(false, std::move(violations), {});
        }
    }
    result.cycles = now();
    return result;
}

} // namespace crisp
