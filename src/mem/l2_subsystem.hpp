#ifndef CRISP_MEM_L2_SUBSYSTEM_HPP
#define CRISP_MEM_L2_SUBSYSTEM_HPP

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ring.hpp"
#include "common/stats.hpp"
#include "common/work_set.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/due_queue.hpp"
#include "mem/fault_hook.hpp"
#include "mem/icnt.hpp"
#include "mem/mem_request.hpp"
#include "mem/mshr.hpp"

namespace crisp
{

namespace telemetry
{
class TelemetrySink;
class SelfProfiler;
}

/** Configuration of the shared L2 + DRAM side of the machine. */
struct L2Config
{
    uint32_t numBanks = 16;
    CacheGeometry bankGeometry{256 * 1024, 16, kLineBytes};
    Cycle l2Latency = 90;             ///< Probe-to-data latency (core cycles).
    Cycle icntLatency = 25;           ///< One-way interconnect latency.
    double icntBytesPerCycle = 512;   ///< Per-direction icnt bandwidth.
    double dramBytesPerCycle = 396;   ///< Aggregate DRAM bandwidth.
    Cycle dramLatency = 180;          ///< DRAM access latency.
    uint32_t mshrEntriesPerBank = 64;
    uint32_t mshrTargetsPerEntry = 8;
    uint32_t bankQueueCapacity = 32;
    /**
     * Data bandwidth of one L2 bank (slice) in bytes per cycle: a 128 B
     * line occupies the bank for several cycles. This is what MiG's
     * bank-level partitioning halves for each stream (Fig 14).
     */
    double bankBytesPerCycle = 32.0;
};

/**
 * Shared L2 cache + DRAM subsystem: banked tag stores, per-bank queues,
 * MSHRs, and DRAM channels behind an interconnect.
 *
 * Supports the paper's three L2 organizations:
 *  - **MPS**: fully shared (default);
 *  - **MiG**: bank-level partitioning via per-stream bank masks;
 *  - **TAP**: set-level partitioning via per-stream set windows in every
 *    bank (Section VI-C).
 *
 * Responses are delivered through a callback, so the owner (the GPU model)
 * can route completions back to the issuing SM.
 */
class L2Subsystem
{
  public:
    using ResponseHandler = std::function<void(const MemRequest &)>;
    /** Observer invoked on every bank access (stream, line, hit, lruPos). */
    using AccessListener =
        std::function<void(StreamId, Addr, bool, uint32_t)>;

    L2Subsystem(const L2Config &cfg, StatsRegistry *stats);

    /** Install the response callback (must be set before stepping). */
    void setResponseHandler(ResponseHandler handler);

    /** Optional access observer (used by TAP's utility monitors). */
    void setAccessListener(AccessListener listener);

    /**
     * Try to enqueue a request from an SM at cycle @p now.
     * @return false if the target bank queue is full (caller retries).
     */
    bool submit(MemRequest req, Cycle now);

    /**
     * Complete due DRAM fills, let each bank whose wake cycle has come
     * service its head, and deliver due responses. Due banks are
     * serviced in bank-id order (they share the DRAM channel); the bank
     * phase is skipped outright while no bank is due (see
     * auditWorkSets).
     */
    void step(Cycle now);

    /** True when no request is in flight anywhere in the subsystem. */
    bool idle() const;

    /**
     * Re-derive the structures step() walks instead of scanning: each
     * bank's busy flag equals !queue.empty() and the busy count matches;
     * each bank's full flag (the retry gates' view) equals a full queue;
     * each busy bank's wake cycle is max(head readyAt, bank free cycle)
     * and the earliest wake is the minimum over the busy banks; and both
     * due queues are non-decreasing in due cycle. A lost bank wakeup
     * therefore fails here instead of quietly shifting timing. @return
     * false (with @p detail filled) on the first mismatch.
     */
    bool auditWorkSets(std::string *detail) const;

    /**
     * Earliest future cycle (> @p now) at which stepping this subsystem
     * can do anything: the nearest DRAM fill return, response delivery,
     * or bank-queue head becoming serviceable. kNeverCycle when nothing
     * is in flight. A head stalled on a full MSHR reports now+1 (it
     * unblocks on a fill, which is already covered, but the bank retries
     * every cycle, so the conservative answer keeps it exact). Exact or
     * early in any state after a tick, never late: idle fast-forward
     * jumps on it after every tick, busy or not.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * The gate of @p req, which submit() just refused: its bank's full
     * flag and the routing epoch as it reads now. The flag clears on the
     * bank's next pop and the epoch moves on every rerouted(), so a gate
     * that reads the same epoch and a full bank would be refused again.
     */
    RetryGate
    refusalGate(const MemRequest &req) const
    {
        const uint32_t bank = bankFor(req.line, req.stream);
        return {&bankFull_[bank], &routeEpoch_, routeEpoch_, bank};
    }

    /**
     * A refused request may now route elsewhere: to another bank (a
     * bank-mask change) or off this device (its page migrated away).
     * Moves the routing epoch, which opens every retry gate.
     */
    void rerouted() { ++routeEpoch_; }

    /**
     * MiG-style bank partitioning: restrict @p stream to the banks with set
     * bits in @p mask. Requests hash across only those banks. Both calls
     * reroute (see rerouted()).
     */
    void setStreamBankMask(StreamId stream, uint64_t mask);
    void clearBankMasks();

    /**
     * TAP-style set partitioning: give @p stream @p count sets starting at
     * @p first within every bank.
     */
    void setStreamSetWindow(StreamId stream, uint32_t first, uint32_t count);
    void clearSetWindows();

    /**
     * Attach a fault-injection hook (not owned; nullptr detaches). The hook
     * is consulted when DRAM fills return and when responses are delivered.
     */
    void setFaultHook(MemFaultHook *hook) { faultHook_ = hook; }

    /**
     * Attach a telemetry sink (not owned; nullptr detaches). The L2 emits
     * per-bank consecutive-miss bursts and DRAM row-conflict bursts, and
     * attributes its step phases to the sink's self-profiler when that is
     * enabled.
     */
    void setTelemetry(telemetry::TelemetrySink *sink);

    // --- Integrity introspection -----------------------------------------

    /** Counts of everything currently in flight inside the subsystem. */
    struct InFlight
    {
        uint64_t queuedRequests = 0;     ///< Requests sitting in bank queues.
        uint64_t queuedReads = 0;        ///< Of which expect a response.
        uint64_t mshrEntries = 0;        ///< Outstanding missed lines.
        uint64_t mshrResponseTargets = 0;///< Merged waiters expecting data.
        uint64_t pendingFills = 0;       ///< DRAM fills not yet returned.
        uint64_t pendingResponses = 0;   ///< Responses in the return icnt.
    };
    InFlight inFlight() const;

    /** One outstanding MSHR entry with its waiters' SM ids decoded. */
    struct MshrEntryInfo
    {
        uint32_t bank = 0;
        Addr line = 0;
        Cycle allocatedAt = 0;
        uint32_t targets = 0;
        std::vector<uint32_t> smIds;    ///< SMs awaiting this line's data.
    };
    /** Snapshot of every outstanding MSHR entry, oldest first. */
    std::vector<MshrEntryInfo> mshrEntries() const;

    /**
     * Allocation cycle of the oldest outstanding MSHR entry across all
     * banks, or ~0ull when none — the cheap pre-check for leak scans.
     */
    Cycle oldestMshrAllocation() const;

    /**
     * True when traffic that will eventually complete SM @p smId's read
     * of @p line is still alive inside the subsystem: a queued request,
     * a merged L2 MSHR target, or an undelivered response. The leak scan
     * uses this to tell a *starved* L1 MSHR entry (slow but live — seen
     * under DRAM saturation, where a request can queue for tens of
     * thousands of cycles) from an *orphaned* one whose response was
     * lost and will never arrive. Walks the in-flight structures, so
     * callers should gate it behind an age threshold.
     */
    bool lineInFlightFor(uint32_t smId, Addr line) const;

    /**
     * True when a DRAM fill for @p line on bank @p bank is still on its
     * way back. A leaked L2 MSHR entry (dropped fill) has none.
     */
    bool fillInFlight(uint32_t bank, Addr line) const;

    /** Current depth of each bank's request queue. */
    std::vector<size_t> bankQueueDepths() const;

    /** Booked-ahead cycles on the request/response interconnect links. */
    Cycle requestLinkBacklog(Cycle now) const
    {
        return requestLink_.backlog(now);
    }
    Cycle responseLinkBacklog(Cycle now) const
    {
        return responseLink_.backlog(now);
    }

    /** Read requests accepted from SMs (cumulative). */
    uint64_t readsAccepted() const { return readsAccepted_; }
    /** Responses actually delivered back to SMs (cumulative). */
    uint64_t responsesDelivered() const { return responsesDelivered_; }

    /** Aggregate composition across banks (Figs 11 and 15). */
    CacheComposition composition() const;

    /**
     * Demand accesses the subsystem served. Tag-array probes plus
     * MSHR-merged accesses (which consume a bank slot but never touch the
     * tag array), so this matches the per-stream l2Accesses sum and
     * hitRate() agrees with StreamStats::l2HitRate(). Fill-time installs
     * are not accesses and are excluded (see SetAssocCache::fill).
     */
    uint64_t accesses() const;
    uint64_t hits() const;
    double hitRate() const;

    /** Tag-array probes only (accesses() minus MSHR merges). */
    uint64_t tagAccesses() const;
    /** Accesses merged into a pending MSHR fill instead of probing tags. */
    uint64_t mergedAccesses() const { return mergedAccesses_; }
    /** DRAM fills installed into the banks (cumulative). Conservation:
     *  sum of per-stream dramReads == fillsCompleted() + pendingFills. */
    uint64_t fillsCompleted() const { return fillsCompleted_; }
    /** Cumulative primary MSHR allocations across banks. */
    uint64_t mshrPrimaryAllocations() const;
    /** Cumulative MSHR fills across banks. */
    uint64_t mshrFillsServed() const;

    /**
     * Add each request currently sitting in a bank queue (submitted but
     * not yet counted as an l2Access) to @p out[stream]. The audit uses
     * this to balance per-stream L1 misses against L2 accesses at a cycle
     * boundary.
     */
    void countQueuedByStream(SmallFlatMap<StreamId, uint64_t> &out) const;
    double dramBusyCycles() const;
    uint64_t dramRequests() const;

    const L2Config &config() const { return cfg_; }

  private:
    struct PendingFill
    {
        MemRequest req;
        uint32_t bank;
    };

    uint32_t bankFor(Addr line, StreamId stream) const;
    /** Cycle from which bank @p b can service its (non-empty) queue's
     *  head: the head has crossed the icnt and the bank is free. */
    Cycle
    headWake(uint32_t b) const
    {
        return std::max(bankQueues_[b].front().readyAt, bankFreeAt_[b]);
    }
    /** Service bank @p b's queue head (the bank is due), or leave it,
     *  still due, to retry next cycle when the MSHR refuses it. */
    void serviceBank(uint32_t b, Cycle now, Cycle occupancy);
    /** The head of bank @p b left the queue at @p now: occupy the bank
     *  and re-arm its wake for the next head. */
    void popHead(uint32_t b, Cycle now, Cycle occupancy);
    void respond(MemRequest req, Cycle now, Cycle ready);
    void noteBankMiss(uint32_t bank, StreamId stream, Cycle now);

    L2Config cfg_;
    StatsRegistry *stats_;
    ResponseHandler onResponse_;
    AccessListener onAccess_;
    MemFaultHook *faultHook_ = nullptr;
    telemetry::TelemetrySink *telemetry_ = nullptr;
    telemetry::SelfProfiler *profiler_ = nullptr;
    /** Consecutive misses per bank since the last hit (burst detector). */
    std::vector<uint32_t> missStreaks_;
    /** DRAM row conflicts already covered by an emitted burst event. */
    uint64_t rowConflictsSeen_ = 0;
    uint64_t readsAccepted_ = 0;
    uint64_t responsesDelivered_ = 0;
    /** Reads currently in bank queues (kept incrementally: inFlight() is
     *  called every watchdog tick and must not walk the queues). */
    uint64_t queuedReads_ = 0;
    /** Accesses merged into pending MSHR fills (no tag probe). */
    uint64_t mergedAccesses_ = 0;
    /** DRAM fills installed into banks. */
    uint64_t fillsCompleted_ = 0;

    std::vector<SetAssocCache> banks_;
    std::vector<Ring<MemRequest>> bankQueues_;
    /** Banks whose queue is non-empty: step() visits only these, and
     *  idle() reads their count. */
    WorkSet busyBanks_;
    std::vector<Cycle> bankFreeAt_;
    /**
     * Per busy bank, the first cycle it can act: headWake(), set when a
     * push fills an empty queue and on each pop. A head the MSHR refuses
     * keeps its past wake, so the bank stays due and retries every
     * cycle. The one definition of "when can this bank act" for step()
     * and nextEventCycle().
     */
    std::vector<Cycle> bankWake_;
    /** Per bank, 1 while its queue holds bankQueueCapacity requests
     *  (set by submit, cleared by popHead): what a RetryGate reads. */
    std::vector<uint8_t> bankFull_;
    /** See rerouted(). */
    uint64_t routeEpoch_ = 0;
    /** Minimum of bankWake_ over the busy banks (kNeverCycle when none):
     *  step() skips the bank phase while it lies in the future. */
    Cycle earliestBankWake_ = kNeverCycle;
    std::vector<Mshr> mshrs_;
    IcntLink requestLink_;
    IcntLink responseLink_;
    DramChannel dram_;

    /**
     * Fills ordered by data-return time. A FIFO in practice: each due
     * cycle is a DramChannel::service result, floor(freeAt) + a fixed
     * latency, and the channel's freeAt never falls. Only a fault hook's
     * Delay re-insert lands out of order (see DueQueue::push).
     */
    DueQueue<PendingFill> pendingFills_;
    /**
     * Responses ordered by delivery time. A FIFO in practice for the same
     * reason: each due cycle is an IcntLink::transfer result on the one
     * response link, floor(freeAt) + its fixed latency.
     */
    DueQueue<MemRequest> pendingResponses_;

    /** MiG bank masks; empty (the common case) skips the lookup. */
    std::map<StreamId, uint64_t> bankMasks_;
};

} // namespace crisp

#endif // CRISP_MEM_L2_SUBSYSTEM_HPP
