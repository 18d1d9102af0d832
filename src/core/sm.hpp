#ifndef CRISP_CORE_SM_HPP
#define CRISP_CORE_SM_HPP

#include <algorithm>
#include <array>
#include <bitset>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ring.hpp"
#include "common/stats.hpp"
#include "core/sm_config.hpp"
#include "core/park_wheel.hpp"
#include "core/smem_banks.hpp"
#include "core/unit_pool.hpp"
#include "isa/trace.hpp"
#include "mem/cache.hpp"
#include "mem/mem_request.hpp"
#include "mem/mshr.hpp"

namespace crisp
{

/** Port through which an SM injects line requests into the L2 subsystem. */
class MemFabricPort
{
  public:
    virtual ~MemFabricPort() = default;
    /** @return false when the fabric refuses the request (backpressure). */
    virtual bool submitToL2(MemRequest req, Cycle now) = 0;
    /**
     * The gate of @p req, which submitToL2 just refused (see RetryGate):
     * the SM does not re-offer it while the gate stays closed. The
     * default gate is always open, so the request is re-offered every
     * cycle.
     */
    virtual RetryGate
    refusalGate(const MemRequest &req) const
    {
        (void)req;
        return {};
    }
};

/** Resource footprint of a CTA, used by quota and occupancy accounting. */
struct CtaFootprint
{
    uint32_t threads = 0;
    uint32_t registers = 0;
    uint32_t smemBytes = 0;
    uint32_t warps = 0;

    static CtaFootprint of(const KernelInfo &k);
};

/** Per-stream resource quota inside one SM (fine-grained partitioning). */
struct SmQuota
{
    uint32_t maxThreads = ~0u;
    uint32_t maxRegisters = ~0u;
    uint32_t maxSmemBytes = ~0u;
};

/**
 * Cycle-level Streaming Multiprocessor model.
 *
 * Replays warp traces with in-order issue per warp, a register scoreboard
 * that keeps the cycle each pending register lands,
 * greedy-then-oldest (GTO) warp scheduling across numSchedulers schedulers,
 * per-class execution unit pools with initiation intervals, a shared-memory
 * bank-conflict model, barriers, and a unified L1 data cache with MSHRs in
 * front of the L2 fabric. Texture loads flow through the unified L1, per the
 * paper's Ampere model (§III).
 *
 * Resource usage is tracked per stream so the GPU-level CTA scheduler can
 * implement the fine-grained intra-SM partitioning methods.
 */
class Sm
{
  public:
    /**
     * @param wake_slot where the SM keeps its wake cycle (see due()): a
     *        slot of its owner's WakeCalendar, so the owner finds the due
     *        SMs and the next wake without visiting each SM. It must
     *        outlive the SM; the SM is the only writer.
     */
    Sm(uint32_t sm_id, const SmConfig &cfg, MemFabricPort *fabric,
       StatsRegistry *stats, Cycle *wake_slot);

    /**
     * Try to place one CTA of @p kernel on this SM, honoring total resources
     * and the stream's quota. @return false if it does not fit.
     */
    bool canAccept(const KernelInfo &kernel) const;

    /**
     * Counter bumped by every change that can turn a canAccept() refusal
     * into an accept: a CTA commit (resources freed), setQuota() and
     * clearQuotas(). A launch only consumes resources, so a refusal
     * stands while the epoch is unchanged; the CTA scheduler skips
     * re-asking on that. Starts at 1.
     */
    uint64_t resourceEpoch() const { return resourceEpoch_; }

    /**
     * Launch a CTA (caller must have checked canAccept). A CTA whose
     * warps all have empty traces commits here, onto ctaDones().
     */
    void launchCta(const KernelInfo &kernel, KernelId kernel_id,
                   uint32_t cta_index, Cycle now);

    /**
     * Advance the SM by one cycle. A step that issues nothing puts the
     * SM to sleep until its wake cycle (see due()); stepping an SM that
     * is not due is harmless, only wasted work.
     */
    void step(Cycle now);

    /**
     * True when step(@p now) can do anything. A step is followed by the
     * next cycle's only while a live warp is left unparked after an
     * issue. Otherwise the SM sleeps until the earliest cycle it could
     * issue again: a parked warp's operands landing, or an execution
     * unit or the shared-memory port coming free for a refused warp (a
     * warp with an issuable barrier, control, const or memory
     * instruction would not have been refused), or, with no live warp
     * left, its last result landing (see idle()). Every outside event
     * that can change what issues wakes it: launchCta, a load landing
     * that a parked warp waits on (memResponse or an L1 hit), an LDST
     * grant that retires a queue entry (freeing room), an
     * issue-priority change and a change in setIssueFrozen.
     */
    bool due(Cycle now) const { return *wake_ <= now; }

    /**
     * Credit the per-stream active cycles up to and including @p now
     * that the SM has not counted yet: every stream with a live warp is
     * active in each cycle the SM slept through, exactly as stepping
     * every cycle would have counted it. step() and launchCta() settle
     * on their own; a run settles every SM when it returns.
     */
    void settleCycles(Cycle now);

    /**
     * Response from the L2 fabric for a previously submitted line. The
     * loads it completes land at @p usable, the first cycle whose step
     * may read them: the cycle after the delivery when it comes after
     * that cycle's step pass, the delivery cycle itself when it comes
     * before.
     */
    void memResponse(const MemRequest &resp, Cycle usable);

    /**
     * CTAs committed since the last clearCtaDones(), in commit order, as
     * (stream, kernel): those whose last warp exited in step() and those
     * launchCta() retired at once. The SM never calls out on a commit;
     * its owner delivers this list after the step pass and clears it.
     */
    const std::vector<std::pair<StreamId, KernelId>> &ctaDones() const
    {
        return ctaDones_;
    }
    void clearCtaDones() { ctaDones_.clear(); }

    /** Per-stream intra-SM quota (fine-grained partitioning). */
    void setQuota(StreamId stream, const SmQuota &quota);
    void clearQuotas();

    /**
     * Warp-scheduler issue priority (lower issues first; default 0).
     * Async compute runs the compute queue at lower priority so graphics
     * warps keep their issue slots and compute fills the gaps.
     */
    void setIssuePriority(StreamId stream, int priority);
    void clearIssuePriorities();

    /** No live warp, no memory work and no result still to land: a
     *  result stays owed until a step at or after its landing cycle. */
    bool idle() const;
    uint32_t activeWarps() const { return activeWarps_; }
    uint32_t activeWarpsOf(StreamId stream) const;
    uint32_t activeCtas() const
    {
        return static_cast<uint32_t>(liveCtaSlots_.size());
    }
    uint32_t activeCtasOf(StreamId stream) const;
    uint32_t usedThreadsOf(StreamId stream) const;

    /** Instructions issued by this SM for @p stream (sampling phases). */
    uint64_t issuedInstrsOf(StreamId stream) const;

    uint32_t smId() const { return smId_; }
    const SmConfig &config() const { return cfg_; }

    // --- Integrity introspection ------------------------------------------

    /**
     * Occupancy plus a per-warp stall classification, sampled between
     * cycles. Feeds the watchdog's HangReport: when nothing commits, the
     * dominant stall reason per SM is the first thing a debugger wants.
     */
    struct IntegrityProbe
    {
        uint32_t activeWarps = 0;
        uint32_t activeCtas = 0;
        uint32_t atBarrier = 0;       ///< Warps parked at a CTA barrier.
        uint32_t waitScoreboard = 0;  ///< Blocked on a pending register.
        uint32_t waitExecUnit = 0;    ///< Execution unit pool busy.
        uint32_t waitSmem = 0;        ///< Shared-memory port busy.
        uint32_t waitLdst = 0;        ///< LDST queue at its stream's limit.
        uint32_t ready = 0;           ///< Could issue next cycle.
        uint64_t ldstQueueDepth = 0;
        uint64_t fabricRetryDepth = 0;
        Cycle fabricRetryMaxWait = 0; ///< Lifetime worst retry wait.
        Cycle fabricRetryOldestAge = 0; ///< Oldest parked retry's age.
        uint64_t outstandingLoads = 0;///< Load trackers awaiting data.
        uint32_t l1MshrEntries = 0;
        Addr oldestMissLine = 0;      ///< Line of the oldest L1 MSHR entry.
        Cycle oldestMissAge = 0;      ///< Its age in cycles (0 when none).
        bool issueFrozen = false;

        /** Largest stall bucket as a short label ("scoreboard", ...). */
        const char *dominantStall() const;
    };
    IntegrityProbe probe(Cycle now) const;

    /**
     * Recompute resource accounting from live CTAs and compare against the
     * incrementally tracked totals, per-stream usage and SM capacity.
     * @return false (with @p detail filled) on any mismatch.
     */
    bool auditAccounting(std::string *detail) const;

    /** Fault injection: freeze or thaw this SM's issue stage. */
    void setIssueFrozen(bool frozen)
    {
        if (frozen != issueFrozen_) {
            issueFrozen_ = frozen;
            *wake_ = 0;
        }
    }
    bool issueFrozen() const { return issueFrozen_; }

    /**
     * Fault injection: skew the tracked thread count without touching any
     * CTA, modeling an accounting leak. auditAccounting() must catch it.
     */
    void skewAccountingForFaultInjection(uint32_t threads)
    {
        usedThreads_ += threads;
    }

    const Mshr &l1Mshr() const { return l1Mshr_; }
    size_t fabricRetryDepth() const { return fabricRetry_.size(); }

    /**
     * Longest time (cycles) any fabric request parked in the retry
     * queue has waited between being refused and finally accepted, over
     * the SM's whole lifetime. The round-robin fabric arbiter exists to
     * bound this; the starvation regression test pins the bound.
     */
    Cycle maxFabricRetryWait() const { return maxFabricRetryWait_; }

    /**
     * Age (cycles) of the oldest request still parked in the retry
     * queue, 0 when the queue is empty. The bounded-stall invariant
     * checks this against the arbitration-derived bound.
     */
    Cycle oldestFabricRetryAge(Cycle now) const
    {
        return fabricRetry_.empty() ? 0
                                    : now - fabricRetry_.front().parkedAt;
    }

    /**
     * Read misses parked SM-side waiting for the fabric to accept them.
     * The cross-layer conservation invariant balances L1 MSHR entries
     * against these plus the L2's in-flight reads — so parked
     * write-through stores (which hold no MSHR entry and expect no
     * response) must not be counted here.
     */
    uint64_t pendingFabricReads() const
    {
        uint64_t reads = 0;
        for (const auto &[req, parked_at] : fabricRetry_) {
            if (req.expectsResponse()) {
                ++reads;
            }
        }
        return reads;
    }

    /**
     * True if a read for @p line is still parked in the fabric-retry
     * queue — the SM-side leg of the leak scan's is-it-orphaned test: an
     * L1 MSHR entry whose request has not even reached the L2 yet is
     * starved, not leaked.
     */
    bool fabricRetryHasLine(Addr line) const
    {
        for (const auto &[req, parked_at] : fabricRetry_) {
            if (req.line == line && req.expectsResponse()) {
                return true;
            }
        }
        return false;
    }

    /**
     * Add each request (reads *and* write-through stores) parked in the
     * fabric-retry queue to @p out[stream]. The audit balances per-stream
     * L1 misses against L2 accesses plus requests still on their way
     * there, and a parked store has been counted as an L1 access already.
     * Takes the audit layer's reusable flat-map scratch so the
     * cadence-4096 audits allocate nothing.
     */
    void
    countFabricRetriesByStream(SmallFlatMap<StreamId, uint64_t> &out) const
    {
        for (const auto &[req, parked_at] : fabricRetry_) {
            ++out[req.stream];
        }
    }

    // --- Fabric arbitration (grant-driven memory phase) -------------------

    // The owning Gpu's round-robin fabric arbiter drives this SM's
    // fabric-facing memory phase (retry queue + LDST unit) through
    // beginMemPhase() and the grants below before stepping the SMs;
    // step() itself never touches the fabric.

    /**
     * True while the retry queue or the LDST unit has work to submit. An
     * LDST head parked on a merge stall or a full L1 MSHR is not work:
     * re-probing it would refuse with no side effect until memResponse
     * (the only change to the L1 or its MSHR) or a priority entry landing
     * in front of it clears the park. A driver that grants regardless
     * just re-probes the head.
     *
     * This turns from false to true only inside step() (an issued
     * memory instruction, or a priority entry unparking the head) or in
     * memResponse (which unparks the head); a memory-phase grant only
     * moves work from the LDST unit to the retry queue. So a caller that
     * re-checks an SM after each step and each memResponse never misses
     * one: the Gpu's memory-phase set relies on exactly that.
     */
    bool hasMemPhaseWork() const
    {
        return !fabricRetry_.empty() || hasLdstWork();
    }

    /** The LDST half of hasMemPhaseWork(): a queued, unparked head. */
    bool hasLdstWork() const { return !ldstQueue_.empty() && !ldstParked_; }

    /**
     * Open this SM's memory phase for cycle @p now: reload the per-cycle
     * L1 port and retry budgets and clear the blocked flags. Must be
     * called once per cycle before any grant. A retry head whose gate is
     * closed (its bank is still full and it still routes there) blocks
     * the retry stage here, exactly as its refusal would: the re-offer
     * is skipped, not made.
     */
    void beginMemPhase(Cycle now);

    /** After beginMemPhase: the retry stage has a head it may offer. */
    bool retryStageOpen() const
    {
        return !fabricRetry_.empty() && !memRetryBlocked_;
    }

    /**
     * One retry-stage grant: re-send the head of the fabric-retry queue
     * (FIFO). A refusal blocks the stage for the rest of the cycle —
     * bank-queue refusals are monotone within a cycle — as does the
     * per-cycle retry cap, and the refusal's gate (see RetryGate) keeps
     * the head from being re-offered, here or in later cycles, while
     * that would be refused again. @return true when a request was
     * submitted and another may follow this cycle; false drops this SM
     * from the arbiter's retry rotation this cycle (on the grant that
     * spends its last retry or empties its queue, too). Parked requests
     * are the oldest traffic in the machine, so the arbiter runs every
     * SM's retry rounds before any LDST round: fresh lines must not
     * steal freed bank slots from starved retries.
     */
    bool memPhaseGrantRetry(Cycle now);

    /** The retry head's gate: closed while a re-offer would be refused
     *  by the same full bank queue (always open with no head). */
    const RetryGate &retryGate() const { return retryGate_; }
    /** The retry head (fabricRetryDepth() > 0). */
    const MemRequest &retryHead() const { return fabricRetry_.front().req; }

    /** Issue-stage work over the SM's life (exact work counts). */
    struct IssueCounts
    {
        uint64_t tries = 0;     ///< tryIssue calls.
        uint64_t refusals = 0;  ///< Of those, refused.
    };
    const IssueCounts &issueCounts() const { return issueCounts_; }

    /** Retry-stage work over the SM's life (exact work counts). */
    struct RetryCounts
    {
        uint64_t offers = 0;    ///< Re-offers made to the fabric.
        uint64_t refusals = 0;  ///< Of those, refused.
        uint64_t skips = 0;     ///< Re-offers a closed gate skipped.
    };
    const RetryCounts &retryCounts() const { return retryCounts_; }

    /**
     * One LDST-stage grant: push at most one line through the LDST unit
     * (L1 hit, MSHR merge, or fabric submission; refused submissions
     * park in the retry queue). A head-of-line stall blocks the unit
     * for the rest of the cycle. @return true when a line progressed
     * and another could follow this cycle; false drops this SM from the
     * LDST rotation this cycle (on the grant that spends its last L1
     * port or empties its queue, too: a further grant would be idle).
     */
    bool memPhaseGrantLdst(Cycle now);

    /**
     * Add every per-stream stat this SM wrote since the last fold into
     * the registry it was built with, then zero its own blocks. The SM
     * writes its stats nowhere else (step, launchCta, the memory phase
     * and settleCycles all write the SM's blocks), so the step pass
     * never touches shared counters. The fold only adds counters and
     * takes the min of firstCycle and the max of lastCycle, so its
     * timing and the SM order cannot change a merged value: the owner
     * folds on read (Gpu::stats()).
     */
    void foldStats();

    /**
     * Earliest future cycle (> @p now) at which this SM can do work on
     * its own: the next cycle while the SM has unparked memory-phase work
     * (see hasMemPhaseWork) or an outside event has woken it, otherwise
     * the wake cycle its last step computed (kNeverCycle when every warp
     * waits on memory; the L2 side owns those wake-ups, and the response
     * that unparks an LDST head). Exact or early in any state after a
     * tick, never late: idle fast-forward jumps to the minimum across all
     * components after every tick, with no other test of idleness. The
     * owning Gpu reads the same term without visiting the SM: the wake
     * from its WakeCalendar slot, the memory-phase work from its
     * memory-phase set.
     */
    Cycle nextWorkCycle(Cycle now) const
    {
        return hasMemPhaseWork() ? now + 1 : std::max(*wake_, now + 1);
    }

  private:
    /** Architectural registers per thread the scoreboard tracks. */
    static constexpr uint32_t kRegs = 256;
    /** Ready cycles from here up: the register waits on a load still
     *  in flight, whose tracker id the low bits hold. */
    static constexpr Cycle kInFlight = Cycle{1} << 63;

    struct WarpState
    {
        WarpTrace trace;
        size_t pc = 0;
        uint32_t slot = 0;
        uint32_t ctaKey = 0;
        StreamId stream = 0;
        uint32_t streamIdx = 0;     ///< Index into streamSlots_.
        bool live = false;
        /** Stream issue priority, cached so the scheduler order and the
         *  issue path never look it up per attempt (refreshed whenever
         *  setIssuePriority / clearIssuePriorities changes the table). */
        int prio = 0;
        bool prioStream = false;    ///< prio < 0 (LDST fast lane).
        uint32_t ldstLimit = 0;     ///< Cached ldstLimitFor(stream).
        uint64_t age = 0;           ///< Launch order for GTO.
        /** Registers whose readyAt_ entry this warp has written: an
         *  unwritten entry holds whatever its slot's last warp left. */
        std::bitset<kRegs> written;
        /** Loads with a destination still in flight. */
        uint32_t loadsInFlight = 0;
        /** Latest landing cycle of any result this warp has written. */
        Cycle resultsBy = 0;
        /** Upper bound on the cycle the operands of the warp's next
         *  instruction are all in (from kInFlight up while one waits on
         *  a load in flight), set when the warp issues or parks: ready
         *  cycles only fall until the warp issues again, so a try at or
         *  past it skips the scoreboard test. Exact while the warp is
         *  parked on the scoreboard. */
        Cycle readyFrom = 0;
    };

    struct CtaState
    {
        StreamId stream = 0;
        KernelId kernel = 0;
        CtaFootprint footprint;
        uint32_t liveWarps = 0;
        uint32_t warpsAtBarrier = 0;
        std::vector<uint32_t> warpSlots;
    };

    struct LoadTracker
    {
        uint32_t warpSlot = 0;
        uint8_t reg = kNoReg;
        uint32_t remaining = 0;
        bool isTexture = false;
        bool active = false;
        /** Age of the issuing warp: a warp slot a new CTA reused since
         *  holds a younger warp, for which this load is a stray. */
        uint64_t warpAge = 0;
        /** Allocation generation; id = (gen << kTrackerIdxBits) | slot. */
        uint64_t gen = 0;
    };
    static constexpr uint32_t kTrackerIdxBits = 20;
    static constexpr uint32_t kNoSlotIndex = ~0u;

    /** An in-flight memory instruction working through the LDST unit. */
    struct LdstEntry
    {
        uint64_t tracker = 0;
        StreamId stream = 0;
        uint32_t streamIdx = 0;     ///< Index into streamSlots_.
        DataClass cls = DataClass::Unknown;
        bool write = false;
        bool texture = false;
        std::vector<Addr> lines;    ///< Remaining lines to inject.
    };

    /**
     * Issue @p warp's next instruction, or refuse. A refusal has no side
     * effect. One on the register scoreboard parks the warp until its
     * operands land (see park()); one on a full LDST queue parks it
     * until the queue pops or refreshPriorityCaches() moves the limits.
     * An issue whose warp's next instruction would still be refused on
     * the scoreboard next cycle parks the warp at once. step() skips
     * parked warps. Other refusals lower @p wake to the cycle a busy
     * execution unit or the smem port frees, when that is known here.
     */
    bool tryIssue(WarpState &warp, Cycle now, Cycle &wake);
    /** Cycle from which every register @p instr reads or writes (RAW/
     *  WAW) has landed for @p warp: 0 when none is pending, at least
     *  kInFlight when one waits on a load still in flight. */
    Cycle operandsReadyAt(const WarpState &warp,
                          const TraceInstr &instr) const;
    /** False when no register of @p warp is pending at @p at, which
     *  skips the per-operand test. */
    static bool mayWait(const WarpState &warp, Cycle at)
    {
        return warp.loadsInFlight != 0 || warp.resultsBy > at;
    }
    /** Park @p warp on the scoreboard until @p clear_at (> the last
     *  step): on the park wheel, or on its loads from kInFlight up. */
    void park(WarpState &warp, Cycle clear_at);
    /** Re-derive the scoreboard park of @p warp after one of its ready
     *  cycles fell, waking the SM for the new clear cycle. */
    void repark(WarpState &warp);
    /** A result lands at @p at: the SM owes a step at or after it
     *  before it is idle. */
    void noteLanding(Cycle at);
    /** @p warp issues a write of @p reg that lands at @p ready (a load
     *  token from kInFlight up while its load is in flight). */
    void writeReg(WarpState &warp, uint8_t reg, Cycle ready, Cycle now);
    /** A stray write of @p reg to warp slot @p slot lands at @p at (see
     *  strays_): it clears the write of that register pending then. */
    void strayLands(uint32_t slot, uint8_t reg, Cycle at);
    /** The load of tracker @p id completes, usable from @p usable. */
    void landLoad(const LoadTracker &tracker, uint64_t id, Cycle usable);
    Cycle &readyAt(uint32_t slot, uint8_t reg)
    {
        return readyAt_[size_t{slot} * kRegs + reg];
    }
    /** True when the L1 refuses a load of @p line for @p stream, whose
     *  L1 MSHR lookup is @p at: a merge into a pending miss whose targets
     *  are full, or a miss with every MSHR entry taken. stepLdstOne parks
     *  the head on it; the audit re-checks a parked head with it. */
    bool loadRefused(const Mshr::Lookup &at, Addr line,
                     StreamId stream) const
    {
        return l1Mshr_.wouldStall(at) &&
            (at.pending || !l1_.probe(line, stream));
    }
    /** Mask bit of a warp slot in the park masks. */
    static constexpr uint64_t slotBit(uint32_t slot)
    {
        return uint64_t{1} << slot;
    }
    /** Warp slots that step() skips: a try would refuse them. */
    uint64_t parkedMask() const
    {
        return scoreboardParked_ | loadParked_ | ldstRoomParked_ |
            barrierParked_;
    }
    void issueMemory(WarpState &warp, const TraceInstr &instr, Cycle now);
    size_t ldstLimitFor(StreamId stream) const;
    int priorityOf(StreamId stream) const;
    /** Re-derive every live warp's cached priority fields and re-sort the
     *  per-scheduler issue orders (called on priority-table changes). */
    void refreshPriorityCaches();
    void schedOrderInsert(const WarpState &warp);
    void schedOrderRemove(const WarpState &warp);
    LoadTracker *findTracker(uint64_t id);
    uint64_t allocTracker(const LoadTracker &tracker);
    void freeTracker(uint32_t idx);
    std::vector<Addr> takePooledLines();
    void recycleLines(std::vector<Addr> &&lines);
    /** Index of @p stream's slot in streamSlots_, added on first use. */
    uint32_t streamIdxOf(StreamId stream);
    void finishWarp(WarpState &warp, Cycle now);
    void releaseBarrier(CtaState &cta);
    /** Outcome of pushing one line through the LDST unit. */
    enum class LdstOutcome
    {
        Progress,   ///< One line left the unit (hit, merge, or fabric).
        Blocked,    ///< Head-of-line stall: no progress until next cycle.
        Idle        ///< Queue empty or L1 port budget exhausted.
    };
    LdstOutcome stepLdstOne(Cycle now);

    uint32_t smId_;
    SmConfig cfg_;
    MemFabricPort *fabric_;
    StatsRegistry *stats_;

    std::vector<WarpState> warps_;          // one per warp slot
    std::vector<uint32_t> freeSlots_;
    // CTA arena: states live in a slot pool whose index is the CTA key,
    // so launch/commit churn reuses slots (and each slot's warpSlots
    // capacity) instead of hashing into a node-based map.
    std::vector<CtaState> ctaPool_;
    std::vector<uint32_t> ctaFreeSlots_;
    std::vector<uint32_t> liveCtaSlots_;    // insertion order
    uint64_t warpAgeCounter_ = 0;
    uint32_t activeWarps_ = 0;
    bool issueFrozen_ = false;
    // Parked warps (see tryIssue), one bit per slot: maxWarps <= 64.
    // auditAccounting() re-derives every park and the live mask.
    /** On the park wheel until their operands land. */
    uint64_t scoreboardParked_ = 0;
    /** Waiting on an operand whose load is in flight. */
    uint64_t loadParked_ = 0;
    uint64_t ldstRoomParked_ = 0;
    /** At a CTA barrier, released by another warp's issue or exit. */
    uint64_t barrierParked_ = 0;
    /** Live warp slots, one bit each. step() skips a scheduler none of
     *  whose live warps is unparked: its walk would try none of them. */
    uint64_t liveMask_ = 0;
    /** Slots each scheduler owns (slot % numSchedulers), one bit each. */
    std::vector<uint64_t> schedSlots_;
    /** First cycle at which step() may do work again (0 = due now): the
     *  SM's slot in its owner's WakeCalendar. */
    Cycle *wake_;
    /** Last cycle whose per-stream active cycles have been credited. */
    Cycle countedThrough_ = 0;
    /** See resourceEpoch(). */
    uint64_t resourceEpoch_ = 1;
    /** First quota breach observed at CTA launch (sticky; "" = none). */
    std::string quotaBreach_;

    // Aggregate and per-stream resource usage. Flat maps: an SM sees a
    // handful of streams and these sit on the per-issue path.
    uint32_t usedThreads_ = 0;
    uint32_t usedRegisters_ = 0;
    uint32_t usedSmem_ = 0;
    SmallFlatMap<StreamId, CtaFootprint> usedByStream_;
    SmallFlatMap<StreamId, SmQuota> quotas_;
    SmallFlatMap<StreamId, int> issuePriority_;

    /** Per-stream state of one stream that has launched a CTA here.
     *  Warps and LDST entries carry their stream's slot index, so
     *  the per-issue and per-line paths index instead of searching. */
    struct StreamSlot
    {
        StreamId stream = 0;
        /** Live warps (drives active-cycle counting without walking the
         *  CTA table every cycle). */
        uint32_t liveWarps = 0;
        /** Instructions issued over the SM's life (sampling phases). */
        uint64_t issued = 0;
        /** Stats written since the last foldStats(). */
        StreamStats stats;
    };
    /** In first-launch order; a slot lives as long as the SM. */
    std::vector<StreamSlot> streamSlots_;

    // Per-scheduler issue order: live slots sorted by (prio, age), kept
    // incrementally so the per-cycle GTO pass is a walk, not a sort.
    std::vector<std::vector<uint32_t>> schedOrder_;
    /** Greedy pick per scheduler (kNoSlotIndex = none). */
    std::vector<uint32_t> greedySlot_;

    // Execution unit pools of the ALU classes (FP32, INT, SFU, Tensor),
    // indexed by OpClass. A busy-pool rejection is one compare.
    static constexpr size_t kAluClasses = 4;
    std::array<UnitPool, kAluClasses> units_;
    // Shared-memory port: serialized by bank conflicts, independent of the
    // ALU pipes (compute kernels heavy on shared memory do not steal issue
    // bandwidth from rendering's address math).
    Cycle smemPortFreeAt_ = 0;

    // Register scoreboard: per warp slot, the cycle each register lands
    // (a token from kInFlight up while its load is in flight), maxWarps x
    // kRegs entries.
    // An entry counts only while its warp's written bit is set, so the
    // table is never cleared, not even when it is allocated.
    std::unique_ptr<Cycle[]> readyAt_;
    /**
     * A register write clears whichever write of the same warp slot and
     * register is pending when it lands, as a scoreboard indexed by slot
     * and register does. Normally that is its own. A write whose warp
     * has left the slot, or whose register an earlier stray cleared
     * before the warp rewrote it, is a stray: strays_ holds the landing
     * cycles known ahead of strays still to land (a fixed-latency result
     * or an L1 hit), and a write issued before one lands clears there.
     * Usually empty; entries at or before the current step are dropped.
     */
    struct StrayWrite
    {
        Cycle at;
        uint32_t slot;
        uint8_t reg;
    };
    std::vector<StrayWrite> strays_;
    ParkWheel parkWheel_;
    /** Latest landing of any result, and whether a step at or after it
     *  is still owed (see idle()). */
    Cycle lastLanding_ = 0;
    bool landingOwed_ = false;
    /** Cycle of the last step (the audit's reference for parks). */
    Cycle steppedAt_ = 0;
    IssueCounts issueCounts_;

    // LDST unit.
    Ring<LdstEntry> ldstQueue_;
    /** Retired LdstEntry line buffers, reused to avoid per-issue churn. */
    std::vector<std::vector<Addr>> linePool_;
    /** A request refused by the fabric and the cycle it parked. */
    struct ParkedRequest
    {
        MemRequest req;
        Cycle parkedAt = 0;
    };
    /** Requests refused by the fabric, waiting to be re-sent. */
    Ring<ParkedRequest> fabricRetry_;
    /** Gate of the retry head's last refusal; reset when the head leaves. */
    RetryGate retryGate_;
    RetryCounts retryCounts_;
    Cycle maxFabricRetryWait_ = 0;
    // Grant-driven memory phase: per-cycle budgets and sticky blocked
    // flags, reloaded by beginMemPhase(). A retry-head refusal blocks
    // only the retry stage (fresh lines may target other banks); an LDST
    // head-of-line stall blocks the LDST unit for the rest of the cycle.
    uint32_t memPortsLeft_ = 0;
    uint32_t memRetriesLeft_ = 0;
    bool memRetryBlocked_ = false;
    bool memLdstBlocked_ = false;
    /** The LDST head is a load refused on a merge stall or a full MSHR;
     *  it stays refused until memResponse or a new head clears this. */
    bool ldstParked_ = false;
    // Load trackers live in a generation-checked slot pool; ids encode
    // (generation, slot) so stale MSHR keys simply fail the lookup.
    std::vector<LoadTracker> trackerPool_;
    std::vector<uint32_t> trackerFreeSlots_;
    uint64_t trackerGen_ = 0;
    uint64_t liveTrackers_ = 0;

    /** Committed CTAs awaiting the owner's merge (see ctaDones()). */
    std::vector<std::pair<StreamId, KernelId>> ctaDones_;

    // Unified L1 data cache.
    SetAssocCache l1_;
    Mshr l1Mshr_;
    SmemBanks smemBanks_;
};

} // namespace crisp

#endif // CRISP_CORE_SM_HPP
