#include "integrity/checks.hpp"

#include <cinttypes>

#include "common/logging.hpp"

namespace crisp
{
namespace integrity
{

using logging_detail::formatMessage;

void
checkConservation(const std::vector<const Sm *> &sms,
                  const std::vector<const L2Subsystem *> &l2s,
                  uint64_t fabric_reads, Cycle now,
                  std::vector<InvariantViolation> &out)
{
    // 1. Cumulative conservation on each L2: every accepted read is
    // either still outstanding or has been delivered. A dropped response
    // makes the left side exceed the right side forever.
    uint64_t outstanding = 0;
    for (size_t d = 0; d < l2s.size(); ++d) {
        const L2Subsystem &l2 = *l2s[d];
        const L2Subsystem::InFlight f = l2.inFlight();
        const uint64_t here =
            f.queuedReads + f.mshrResponseTargets + f.pendingResponses;
        outstanding += here;
        if (l2.readsAccepted() != l2.responsesDelivered() + here) {
            out.push_back(
                {"mem-conservation",
                 formatMessage("%sL2 reads accepted (%" PRIu64 ") != "
                               "delivered (%" PRIu64 ") + outstanding "
                               "(%" PRIu64 ": %" PRIu64 " queued + %"
                               PRIu64 " mshr targets + %" PRIu64
                               " responses)",
                               l2s.size() > 1
                                   ? formatMessage("GPU %zu ", d).c_str()
                                   : "",
                               l2.readsAccepted(), l2.responsesDelivered(),
                               here, f.queuedReads, f.mshrResponseTargets,
                               f.pendingResponses),
                 now});
        }
    }

    // 2. Structural cross-layer conservation: each outstanding L1 MSHR
    // line sent exactly one read into the fabric (or parked it in the
    // SM's retry queue), so the totals must balance at cycle boundaries.
    uint64_t l1_entries = 0;
    uint64_t retained = 0;
    for (const Sm *sm : sms) {
        l1_entries += sm->l1Mshr().entriesInUse();
        retained += sm->pendingFabricReads();
    }
    if (l1_entries != retained + outstanding + fabric_reads) {
        out.push_back(
            {"mem-conservation",
             formatMessage("outstanding L1 MSHR lines (%" PRIu64 ") != "
                           "fabric-retry (%" PRIu64 ") + in-flight in L2 "
                           "(%" PRIu64 ") + on the inter-GPU fabric (%"
                           PRIu64 ")",
                           l1_entries, retained, outstanding, fabric_reads),
             now});
    }
}

void
checkSmAccounting(const std::vector<const Sm *> &sms, Cycle now,
                  std::vector<InvariantViolation> &out)
{
    for (const Sm *sm : sms) {
        std::string detail;
        if (!sm->auditAccounting(&detail)) {
            out.push_back({"sm-accounting", detail, now});
        }
    }
}

void
checkL2WorkSets(const L2Subsystem &l2, Cycle now,
                std::vector<InvariantViolation> &out)
{
    std::string detail;
    if (!l2.auditWorkSets(&detail)) {
        out.push_back({"l2-work-sets", detail, now});
    }
}

void
checkBoundedRetryWait(const std::vector<const Sm *> &sms, Cycle now,
                      Cycle bound, std::vector<InvariantViolation> &out)
{
    if (bound == 0) {
        return;
    }
    for (const Sm *sm : sms) {
        const Cycle age = sm->oldestFabricRetryAge(now);
        if (age > bound) {
            out.push_back(
                {"fabric-retry-starvation",
                 formatMessage("SM %u fabric retry parked for %" PRIu64
                               " cycles (bound %" PRIu64
                               "): arbitration lost fairness or the "
                               "fabric wedged",
                               sm->smId(), age, bound),
                 now});
        }
    }
}

std::vector<HangReport::MshrLeakRow>
findMshrLeaks(const std::vector<const Sm *> &sms, const L2Subsystem &l2,
              Cycle now, Cycle max_age,
              std::vector<InvariantViolation> *out,
              const std::function<bool(uint32_t, Addr)> &remote_in_flight)
{
    std::vector<HangReport::MshrLeakRow> leaks;
    auto report = [&](const HangReport::MshrLeakRow &row) {
        if (out) {
            std::string sm_list;
            for (uint32_t sm : row.smIds) {
                if (!sm_list.empty()) {
                    sm_list += ',';
                }
                sm_list += std::to_string(sm);
            }
            out->push_back(
                {"mshr-leak",
                 formatMessage("%s MSHR entry for line 0x%" PRIx64
                               " in %s %u outstanding for %" PRIu64
                               " cycles (%u targets, waiting SMs: %s)",
                               row.level.c_str(), row.line,
                               row.level == "L1" ? "SM" : "bank",
                               row.unit, row.age, row.targets,
                               sm_list.empty() ? "-" : sm_list.c_str()),
                 now});
        }
        leaks.push_back(row);
    };

    for (const Sm *sm : sms) {
        if (sm->l1Mshr().entriesInUse() == 0 ||
            now - sm->l1Mshr().oldestAllocation() < max_age) {
            continue;
        }
        for (const auto &entry : sm->l1Mshr().entries()) {
            const Cycle age = now - entry.allocatedAt;
            if (age < max_age) {
                break;   // entries() is sorted oldest first
            }
            // Old but still live somewhere between here and DRAM means
            // starved, not leaked: under saturation a request can queue
            // for tens of thousands of cycles and still complete.
            if (sm->fabricRetryHasLine(entry.line) ||
                l2.lineInFlightFor(sm->smId(), entry.line) ||
                (remote_in_flight &&
                 remote_in_flight(sm->smId(), entry.line))) {
                continue;
            }
            HangReport::MshrLeakRow row;
            row.level = "L1";
            row.unit = sm->smId();
            row.line = entry.line;
            row.age = age;
            row.targets = entry.targets;
            row.smIds = {sm->smId()};
            report(row);
        }
    }

    // Cheap pre-check so per-cycle scans don't snapshot a healthy L2.
    const Cycle l2_oldest = l2.oldestMshrAllocation();
    if (l2_oldest == ~0ull || now - l2_oldest < max_age) {
        return leaks;
    }
    for (const auto &entry : l2.mshrEntries()) {
        const Cycle age = now - entry.allocatedAt;
        if (age < max_age) {
            break;   // sorted oldest first
        }
        // A fill still on its way back will clear this entry; only an
        // entry nothing will ever fill is a leak.
        if (l2.fillInFlight(entry.bank, entry.line)) {
            continue;
        }
        HangReport::MshrLeakRow row;
        row.level = "L2";
        row.unit = entry.bank;
        row.line = entry.line;
        row.age = age;
        row.targets = entry.targets;
        row.smIds = entry.smIds;
        report(row);
    }
    return leaks;
}

HangReport::SmRow
smRow(const Sm &sm, Cycle now)
{
    const Sm::IntegrityProbe p = sm.probe(now);
    HangReport::SmRow row;
    row.smId = sm.smId();
    row.activeWarps = p.activeWarps;
    row.activeCtas = p.activeCtas;
    row.atBarrier = p.atBarrier;
    row.waitScoreboard = p.waitScoreboard;
    row.waitExecUnit = p.waitExecUnit;
    row.waitSmem = p.waitSmem;
    row.waitLdst = p.waitLdst;
    row.ready = p.ready;
    row.l1MshrEntries = p.l1MshrEntries;
    row.ldstQueueDepth = p.ldstQueueDepth;
    row.fabricRetryDepth = p.fabricRetryDepth;
    row.fabricRetryMaxWait = p.fabricRetryMaxWait;
    row.fabricRetryOldestAge = p.fabricRetryOldestAge;
    row.outstandingLoads = p.outstandingLoads;
    row.oldestMissLine = p.oldestMissLine;
    row.oldestMissAge = p.oldestMissAge;
    row.issueFrozen = p.issueFrozen;
    row.dominantStall = p.dominantStall();
    return row;
}

HangReport::MemRow
memRow(const L2Subsystem &l2, Cycle now)
{
    const L2Subsystem::InFlight f = l2.inFlight();
    HangReport::MemRow row;
    row.queuedRequests = f.queuedRequests;
    row.queuedReads = f.queuedReads;
    row.mshrEntries = f.mshrEntries;
    row.mshrResponseTargets = f.mshrResponseTargets;
    row.pendingFills = f.pendingFills;
    row.pendingResponses = f.pendingResponses;
    row.readsAccepted = l2.readsAccepted();
    row.responsesDelivered = l2.responsesDelivered();
    row.dramRequests = l2.dramRequests();
    row.requestLinkBacklog = l2.requestLinkBacklog(now);
    row.responseLinkBacklog = l2.responseLinkBacklog(now);
    row.bankQueueDepths = l2.bankQueueDepths();
    return row;
}

} // namespace integrity
} // namespace crisp
