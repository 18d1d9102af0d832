#include "audit/audit.hpp"

#include <cinttypes>

#include "common/logging.hpp"

namespace crisp
{
namespace audit
{

using integrity::InvariantViolation;
using logging_detail::formatMessage;

namespace
{


void
auditStreamCounters(const StatsRegistry &stats, Cycle now,
                    std::vector<InvariantViolation> &out)
{
    for (const auto &[id, st] : stats.allStreams()) {
        const uint64_t classified =
            st.l2Hits + st.l2MshrMerges + st.dramReads;
        if (st.l2Accesses != classified) {
            out.push_back(
                {"counter-stream-identity",
                 formatMessage("stream %u: l2Accesses (%" PRIu64
                               ") != l2Hits (%" PRIu64 ") + l2MshrMerges "
                               "(%" PRIu64 ") + dramReads (%" PRIu64 ")",
                               id, st.l2Accesses, st.l2Hits,
                               st.l2MshrMerges, st.dramReads),
                 now});
        }
        if (st.l1Hits + st.l1MshrMerges > st.l1Accesses) {
            out.push_back(
                {"counter-stream-identity",
                 formatMessage("stream %u: l1Hits (%" PRIu64
                               ") + l1MshrMerges (%" PRIu64
                               ") exceed l1Accesses (%" PRIu64 ")",
                               id, st.l1Hits, st.l1MshrMerges,
                               st.l1Accesses),
                 now});
        }
        if (st.firstCycle != 0 && st.lastCycle != 0 &&
            st.firstCycle > st.lastCycle) {
            out.push_back(
                {"counter-stream-identity",
                 formatMessage("stream %u: firstCycle (%" PRIu64
                               ") after lastCycle (%" PRIu64 ")",
                               id, st.firstCycle, st.lastCycle),
                 now});
        }
    }
}

} // namespace

void
auditAll(const StatsRegistry &stats, const std::vector<const Sm *> &sms,
         const std::vector<const L2Subsystem *> &l2s,
         const SmallFlatMap<StreamId, uint64_t> &fabric_in_flight,
         Cycle now, SmallFlatMap<StreamId, uint64_t> &in_flight,
         std::vector<InvariantViolation> &out)
{
    auditStreamCounters(stats, now, out);

    uint64_t bank_accesses = 0;
    uint64_t bank_hits = 0;
    uint64_t fills = 0;
    uint64_t pending_fills = 0;
    uint64_t allocs = 0;
    uint64_t served = 0;
    uint64_t in_use = 0;
    in_flight.clear();
    for (const L2Subsystem *l2 : l2s) {
        const L2Subsystem::InFlight f = l2->inFlight();
        bank_accesses += l2->accesses();
        bank_hits += l2->hits();
        fills += l2->fillsCompleted();
        pending_fills += f.pendingFills;
        allocs += l2->mshrPrimaryAllocations();
        served += l2->mshrFillsServed();
        in_use += f.mshrEntries;
        l2->countQueuedByStream(in_flight);
    }

    // Bank/stream parity.
    const uint64_t stream_accesses =
        stats.sumOver(&StreamStats::l2Accesses);
    const uint64_t stream_hits = stats.sumOver(&StreamStats::l2Hits);
    if (bank_accesses != stream_accesses) {
        out.push_back(
            {"counter-bank-parity",
             formatMessage("L2 bank accesses (%" PRIu64
                           ") != stream l2Accesses sum (%" PRIu64 ")",
                           bank_accesses, stream_accesses),
             now});
    }
    if (bank_hits != stream_hits) {
        out.push_back(
            {"counter-bank-parity",
             formatMessage("L2 bank hits (%" PRIu64
                           ") != stream l2Hits sum (%" PRIu64
                           "); a fill-time re-access would inflate the "
                           "bank side",
                           bank_hits, stream_hits),
             now});
    }

    // L1<->L2 conservation, with bank queues, SM retry queues and the
    // inter-GPU fabric as the in-flight stages.
    for (const Sm *sm : sms) {
        sm->countFabricRetriesByStream(in_flight);
    }
    for (const auto &[id, n] : fabric_in_flight) {
        in_flight[id] += n;
    }
    for (const auto &[id, st] : stats.allStreams()) {
        const uint64_t l1_misses =
            st.l1Accesses - st.l1Hits - st.l1MshrMerges;
        const auto it = in_flight.find(id);
        const uint64_t pending = it == in_flight.end() ? 0 : it->second;
        if (l1_misses != st.l2Accesses + pending) {
            out.push_back(
                {"counter-l1l2-conservation",
                 formatMessage("stream %u: L1 misses (%" PRIu64
                               ") != l2Accesses (%" PRIu64
                               ") + in flight toward an L2 (%" PRIu64 ")",
                               id, l1_misses, st.l2Accesses, pending),
                 now});
        }
    }

    // DRAM read / fill pairing.
    const uint64_t dram_reads = stats.sumOver(&StreamStats::dramReads);
    if (dram_reads != fills + pending_fills) {
        out.push_back(
            {"counter-fill-pairing",
             formatMessage("stream dramReads sum (%" PRIu64
                           ") != dram fills installed (%" PRIu64
                           ") + fills pending (%" PRIu64
                           "); a dropped fill leaves this short forever",
                           dram_reads, fills, pending_fills),
             now});
    }
    if (allocs != served + in_use) {
        out.push_back(
            {"counter-fill-pairing",
             formatMessage("L2 MSHR primary allocations (%" PRIu64
                           ") != fills served (%" PRIu64
                           ") + entries in use (%" PRIu64 ")",
                           allocs, served, in_use),
             now});
    }
}

void
auditAll(const StatsRegistry &stats, const std::vector<const Sm *> &sms,
         const L2Subsystem &l2, Cycle now,
         std::vector<InvariantViolation> &out)
{
    SmallFlatMap<StreamId, uint64_t> scratch;
    auditAll(stats, sms, {&l2}, {}, now, scratch, out);
}

} // namespace audit
} // namespace crisp
