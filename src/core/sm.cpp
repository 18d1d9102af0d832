#include "core/sm.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace crisp
{

CtaFootprint
CtaFootprint::of(const KernelInfo &k)
{
    CtaFootprint fp;
    fp.threads = k.threadsPerCta();
    fp.registers = k.threadsPerCta() * k.regsPerThread;
    fp.smemBytes = k.smemPerCta;
    fp.warps = k.warpsPerCta();
    return fp;
}

Sm::Sm(uint32_t sm_id, const SmConfig &cfg, MemFabricPort *fabric,
       StatsRegistry *stats)
    : smId_(sm_id),
      cfg_(cfg),
      fabric_(fabric),
      stats_(stats),
      l1_({cfg.l1SizeBytes, cfg.l1Ways, kLineBytes}),
      l1Mshr_(cfg.l1MshrEntries, cfg.l1MshrTargets),
      smemBanks_(cfg.smemBanks)
{
    panic_if(fabric_ == nullptr || stats_ == nullptr,
             "SM requires a fabric port and stats registry");
    fatal_if(cfg_.maxWarps > 64,
             "maxWarps %u exceeds the 64 warp slots the park masks hold",
             cfg_.maxWarps);
    fatal_if(cfg_.maxFabricRetriesPerCycle == 0,
             "maxFabricRetriesPerCycle must be at least 1: an unbounded "
             "retry drain lets one SM's backlog starve fresh requests");
    // The SM never reads hitLruPos (that field feeds the L2's TAP utility
    // monitors); skip the per-hit LRU-stack scan.
    l1_.setHitLruPosReporting(false);
    warps_.resize(cfg_.maxWarps);
    freeSlots_.reserve(cfg_.maxWarps);
    for (uint32_t s = cfg_.maxWarps; s-- > 0;) {
        freeSlots_.push_back(s);
    }
    static_assert(static_cast<size_t>(OpClass::FP32) == 0 &&
                      static_cast<size_t>(OpClass::Tensor) == kAluClasses - 1,
                  "the ALU op classes index units_");
    for (size_t c = 0; c < kAluClasses; ++c) {
        const OpClass cls = static_cast<OpClass>(c);
        units_[c] = UnitPool(cfg_.unitsFor(cls), cfg_.intervalFor(cls));
    }
    schedOrder_.resize(cfg_.numSchedulers);
    for (auto &order : schedOrder_) {
        order.reserve(cfg_.maxWarps / cfg_.numSchedulers + 1);
    }
    greedySlot_.assign(cfg_.numSchedulers, kNoSlotIndex);
    schedSlots_.assign(cfg_.numSchedulers, 0);
    for (uint32_t s = 0; s < cfg_.maxWarps; ++s) {
        schedSlots_[s % cfg_.numSchedulers] |= slotBit(s);
    }
}

int
Sm::priorityOf(StreamId stream) const
{
    auto it = issuePriority_.find(stream);
    return it == issuePriority_.end() ? 0 : it->second;
}

void
Sm::refreshPriorityCaches()
{
    // Priorities reorder issue and move the LDST limits.
    wakeCycle_ = 0;
    ldstRoomParked_ = 0;
    for (WarpState &warp : warps_) {
        if (!warp.live) {
            continue;
        }
        warp.prio = priorityOf(warp.stream);
        warp.prioStream = warp.prio < 0;
        warp.ldstLimit =
            static_cast<uint32_t>(ldstLimitFor(warp.stream));
    }
    for (auto &order : schedOrder_) {
        std::sort(order.begin(), order.end(),
                  [this](uint32_t a, uint32_t b) {
                      const WarpState &wa = warps_[a];
                      const WarpState &wb = warps_[b];
                      if (wa.prio != wb.prio) {
                          return wa.prio < wb.prio;
                      }
                      return wa.age < wb.age;
                  });
    }
}

void
Sm::schedOrderInsert(const WarpState &warp)
{
    auto &order = schedOrder_[warp.slot % cfg_.numSchedulers];
    auto pos = std::lower_bound(
        order.begin(), order.end(), warp.slot,
        [this, &warp](uint32_t slot, uint32_t) {
            const WarpState &w = warps_[slot];
            if (w.prio != warp.prio) {
                return w.prio < warp.prio;
            }
            return w.age < warp.age;
        });
    order.insert(pos, warp.slot);
}

void
Sm::schedOrderRemove(const WarpState &warp)
{
    const uint32_t sched = warp.slot % cfg_.numSchedulers;
    auto &order = schedOrder_[sched];
    auto it = std::find(order.begin(), order.end(), warp.slot);
    panic_if(it == order.end(), "warp slot %u missing from issue order",
             warp.slot);
    order.erase(it);
    if (greedySlot_[sched] == warp.slot) {
        greedySlot_[sched] = kNoSlotIndex;
    }
}

Sm::LoadTracker *
Sm::findTracker(uint64_t id)
{
    const uint64_t idx = id & ((1ull << kTrackerIdxBits) - 1);
    if (idx >= trackerPool_.size()) {
        return nullptr;
    }
    LoadTracker &t = trackerPool_[idx];
    if (!t.active || t.gen != (id >> kTrackerIdxBits)) {
        return nullptr;
    }
    return &t;
}

uint64_t
Sm::allocTracker(const LoadTracker &tracker)
{
    uint32_t idx;
    if (trackerFreeSlots_.empty()) {
        idx = static_cast<uint32_t>(trackerPool_.size());
        panic_if(idx >= (1u << kTrackerIdxBits),
                 "load tracker pool exhausted");
        trackerPool_.push_back(tracker);
    } else {
        idx = trackerFreeSlots_.back();
        trackerFreeSlots_.pop_back();
        trackerPool_[idx] = tracker;
    }
    LoadTracker &t = trackerPool_[idx];
    t.active = true;
    t.gen = ++trackerGen_;
    ++liveTrackers_;
    return (t.gen << kTrackerIdxBits) | idx;
}

void
Sm::freeTracker(uint32_t idx)
{
    trackerPool_[idx].active = false;
    trackerFreeSlots_.push_back(idx);
    --liveTrackers_;
}

std::vector<Addr>
Sm::takePooledLines()
{
    if (linePool_.empty()) {
        return {};
    }
    std::vector<Addr> lines = std::move(linePool_.back());
    linePool_.pop_back();
    lines.clear();
    return lines;
}

void
Sm::recycleLines(std::vector<Addr> &&lines)
{
    if (linePool_.size() < 64) {
        linePool_.push_back(std::move(lines));
    }
}

bool
Sm::canAccept(const KernelInfo &kernel) const
{
    const CtaFootprint fp = CtaFootprint::of(kernel);
    if (freeSlots_.size() < fp.warps || liveCtaSlots_.size() >= cfg_.maxCtas) {
        return false;
    }
    if (usedThreads_ + fp.threads > cfg_.maxWarps * kWarpSize ||
        usedRegisters_ + fp.registers > cfg_.registers ||
        usedSmem_ + fp.smemBytes > cfg_.smemBytes) {
        return false;
    }
    auto qit = quotas_.find(kernel.stream);
    if (qit != quotas_.end()) {
        const SmQuota &q = qit->second;
        CtaFootprint used;
        auto uit = usedByStream_.find(kernel.stream);
        if (uit != usedByStream_.end()) {
            used = uit->second;
        }
        if (used.threads + fp.threads > q.maxThreads ||
            used.registers + fp.registers > q.maxRegisters ||
            used.smemBytes + fp.smemBytes > q.maxSmemBytes) {
            return false;
        }
    }
    return true;
}

void
Sm::launchCta(const KernelInfo &kernel, KernelId kernel_id,
              uint32_t cta_index, Cycle now)
{
    panic_if(!canAccept(kernel), "launchCta without canAccept");
    panic_if(!kernel.source, "kernel %s has no trace source",
             kernel.name.c_str());

    CtaTrace trace = kernel.source->generate(cta_index);
    const CtaFootprint fp = CtaFootprint::of(kernel);

    // Take a CTA slot from the arena (the pool keeps each slot's
    // warpSlots capacity across kernels, so steady-state launches do not
    // allocate).
    uint32_t key;
    if (ctaFreeSlots_.empty()) {
        key = static_cast<uint32_t>(ctaPool_.size());
        ctaPool_.emplace_back();
    } else {
        key = ctaFreeSlots_.back();
        ctaFreeSlots_.pop_back();
    }
    liveCtaSlots_.push_back(key);
    CtaState &cta = ctaPool_[key];
    const uint32_t stream_idx = streamIdxOf(kernel.stream);
    cta.stream = kernel.stream;
    cta.kernel = kernel_id;
    cta.footprint = fp;
    cta.liveWarps = 0;
    cta.warpsAtBarrier = 0;
    cta.warpSlots.clear();

    usedThreads_ += fp.threads;
    usedRegisters_ += fp.registers;
    usedSmem_ += fp.smemBytes;
    CtaFootprint &su = usedByStream_[kernel.stream];
    su.threads += fp.threads;
    su.registers += fp.registers;
    su.smemBytes += fp.smemBytes;
    su.warps += fp.warps;

    // Quota invariant: a launch may never push a stream past its quota
    // (canAccept guards this; a breach means the accounting or the CTA
    // scheduler is broken). Dynamic quota *shrinks* legally leave usage
    // above quota until CTAs commit, so the check belongs here, not in a
    // periodic scan. The breach is sticky and surfaces via audit.
    auto qit = quotas_.find(kernel.stream);
    if (quotaBreach_.empty() && qit != quotas_.end() &&
        (su.threads > qit->second.maxThreads ||
         su.registers > qit->second.maxRegisters ||
         su.smemBytes > qit->second.maxSmemBytes)) {
        quotaBreach_ = logging_detail::formatMessage(
            "SM %u stream %u over quota at CTA launch (cycle %llu): used "
            "thr %u/%u, reg %u/%u, smem %u/%u", smId_, kernel.stream,
            static_cast<unsigned long long>(now), su.threads,
            qit->second.maxThreads, su.registers,
            qit->second.maxRegisters, su.smemBytes,
            qit->second.maxSmemBytes);
    }

    // Cycles slept through before this launch count against the warps
    // the SM already had; step(now) counts the launch cycle itself.
    if (now > 0) {
        settleCycles(now - 1);
    }
    wakeCycle_ = 0;

    StreamSlot &stream_slot = streamSlots_[stream_idx];
    StreamStats &st = stream_slot.stats;
    st.ctasLaunched++;
    if (st.firstCycle == 0) {
        st.firstCycle = now;
    }

    // Pad with empty warps if the generator produced fewer than the launch
    // geometry implies (partial CTAs at grid edges produce fewer warps).
    const int prio = priorityOf(kernel.stream);
    const uint32_t ldst_limit =
        static_cast<uint32_t>(ldstLimitFor(kernel.stream));
    const uint32_t want = fp.warps;
    for (uint32_t w = 0; w < want; ++w) {
        panic_if(freeSlots_.empty(), "warp slots exhausted mid-launch");
        const uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        WarpState &warp = warps_[slot];
        warp = WarpState{};
        warp.slot = slot;
        warp.ctaKey = key;
        warp.stream = kernel.stream;
        warp.streamIdx = stream_idx;
        warp.live = true;
        warp.prio = prio;
        warp.prioStream = prio < 0;
        warp.ldstLimit = ldst_limit;
        warp.age = ++warpAgeCounter_;
        if (w < trace.warps.size()) {
            warp.trace = std::move(trace.warps[w]);
        }
        cta.warpSlots.push_back(slot);
        cta.liveWarps++;
        activeWarps_++;
        liveMask_ |= slotBit(slot);
        ++stream_slot.liveWarps;
        schedOrderInsert(warp);
        st.warpsLaunched++;
    }

    // Immediately retire warps with empty traces (finishWarp does not
    // touch warpSlots, so the walk stays valid through a commit).
    for (uint32_t slot : cta.warpSlots) {
        WarpState &warp = warps_[slot];
        if (warp.live && warp.trace.instrs.empty()) {
            finishWarp(warp, now);
        }
    }
}

void
Sm::setQuota(StreamId stream, const SmQuota &quota)
{
    quotas_[stream] = quota;
    ++resourceEpoch_;
}

void
Sm::clearQuotas()
{
    quotas_.clear();
    ++resourceEpoch_;
}

void
Sm::setIssuePriority(StreamId stream, int priority)
{
    issuePriority_[stream] = priority;
    refreshPriorityCaches();
}

void
Sm::clearIssuePriorities()
{
    issuePriority_.clear();
    refreshPriorityCaches();
}

bool
Sm::idle() const
{
    return activeWarps_ == 0 && ldstQueue_.empty() && liveTrackers_ == 0 &&
           writebacks_.empty() && fabricRetry_.empty();
}

uint32_t
Sm::activeWarpsOf(StreamId stream) const
{
    uint32_t count = 0;
    for (const auto &w : warps_) {
        if (w.live && w.stream == stream) {
            ++count;
        }
    }
    return count;
}

uint32_t
Sm::activeCtasOf(StreamId stream) const
{
    uint32_t count = 0;
    for (uint32_t key : liveCtaSlots_) {
        if (ctaPool_[key].stream == stream) {
            ++count;
        }
    }
    return count;
}

uint32_t
Sm::usedThreadsOf(StreamId stream) const
{
    auto it = usedByStream_.find(stream);
    return it == usedByStream_.end() ? 0 : it->second.threads;
}

uint64_t
Sm::issuedInstrsOf(StreamId stream) const
{
    for (const StreamSlot &slot : streamSlots_) {
        if (slot.stream == stream) {
            return slot.issued;
        }
    }
    return 0;
}

uint32_t
Sm::streamIdxOf(StreamId stream)
{
    for (uint32_t i = 0; i < streamSlots_.size(); ++i) {
        if (streamSlots_[i].stream == stream) {
            return i;
        }
    }
    streamSlots_.emplace_back().stream = stream;
    return static_cast<uint32_t>(streamSlots_.size() - 1);
}

void
Sm::scheduleWriteback(uint32_t slot, uint8_t reg, Cycle when)
{
    writebacks_.push(when, slot, reg);
    wakeCycle_ = std::min(wakeCycle_, when);
}

void
Sm::releaseBarrier(CtaState &cta)
{
    for (uint32_t slot : cta.warpSlots) {
        warps_[slot].atBarrier = false;
    }
    cta.warpsAtBarrier = 0;
}

void
Sm::finishWarp(WarpState &warp, Cycle now)
{
    warp.live = false;
    activeWarps_--;
    liveMask_ &= ~slotBit(warp.slot);
    schedOrderRemove(warp);
    StreamSlot &stream_slot = streamSlots_[warp.streamIdx];
    panic_if(stream_slot.liveWarps == 0,
             "warp finished with no live-warp count");
    --stream_slot.liveWarps;
    CtaState &cta = ctaPool_[warp.ctaKey];
    panic_if(cta.liveWarps == 0, "warp finished with no live CTA");
    cta.liveWarps--;

    if (cta.liveWarps == 0) {
        // CTA commit: release resources for future CTAs (possibly of the
        // other partition after a dynamic ratio change, §III-A).
        usedThreads_ -= cta.footprint.threads;
        usedRegisters_ -= cta.footprint.registers;
        usedSmem_ -= cta.footprint.smemBytes;
        CtaFootprint &su = usedByStream_[cta.stream];
        su.threads -= cta.footprint.threads;
        su.registers -= cta.footprint.registers;
        su.smemBytes -= cta.footprint.smemBytes;
        su.warps -= cta.footprint.warps;
        for (uint32_t slot : cta.warpSlots) {
            freeSlots_.push_back(slot);
        }
        StreamStats &st = stream_slot.stats;
        st.lastCycle = std::max(st.lastCycle, now);
        ctaDones_.emplace_back(cta.stream, cta.kernel);
        auto live_it = std::find(liveCtaSlots_.begin(), liveCtaSlots_.end(),
                                 warp.ctaKey);
        panic_if(live_it == liveCtaSlots_.end(),
                 "finished CTA missing from live list");
        liveCtaSlots_.erase(live_it);
        ctaFreeSlots_.push_back(warp.ctaKey);
        ++resourceEpoch_;
    } else if (cta.warpsAtBarrier == cta.liveWarps &&
               cta.warpsAtBarrier > 0) {
        // The exiting warp was the last one not waiting: release.
        releaseBarrier(cta);
    }
}

size_t
Sm::ldstLimitFor(StreamId stream) const
{
    // Lower-priority streams may only fill half the LDST queue, so an
    // async-compute stream cannot head-of-line block graphics memory
    // instructions.
    auto prio = issuePriority_.find(stream);
    const bool is_priority =
        prio != issuePriority_.end() && prio->second < 0;
    return is_priority || issuePriority_.empty()
        ? cfg_.ldstQueueDepth
        : cfg_.ldstQueueDepth / 2;
}

void
Sm::issueMemory(WarpState &warp, const TraceInstr &instr, Cycle now)
{
    // Queue-limit admission already happened in tryIssue (against the
    // warp's cached limit), so this always succeeds.
    const bool store = isStore(instr.opcode);
    const bool texture = instr.opcode == Opcode::TEX;
    std::vector<Addr> lines = takePooledLines();
    coalesceToLines(instr, lines);
    panic_if(lines.empty(), "memory instruction with no addresses");

    LdstEntry entry;
    entry.stream = warp.stream;
    entry.streamIdx = warp.streamIdx;
    entry.cls = instr.dataClass;
    entry.write = store;
    entry.texture = texture;
    entry.lines = std::move(lines);

    if (!store) {
        LoadTracker tracker;
        tracker.warpSlot = warp.slot;
        tracker.reg = instr.dst;
        tracker.remaining = static_cast<uint32_t>(entry.lines.size());
        tracker.isTexture = texture;
        entry.tracker = allocTracker(tracker);
        if (instr.hasDst()) {
            warp.pendingWrites.set(instr.dst);
        }
    }
    (void)now;
    if (warp.prioStream) {
        // Priority entries service ahead of queued lower-priority ones
        // (but stay ordered among themselves).
        size_t pos = 0;
        while (pos < ldstQueue_.size()) {
            auto p = issuePriority_.find(ldstQueue_[pos].stream);
            if (p == issuePriority_.end() || p->second >= 0) {
                break;
            }
            ++pos;
        }
        if (pos == 0) {
            // A new head: whatever parked the old one says nothing
            // about this entry.
            ldstParked_ = false;
        }
        ldstQueue_.insert(pos, std::move(entry));
    } else {
        ldstQueue_.push_back(std::move(entry));
    }
}

bool
Sm::scoreboardHazard(const WarpState &warp, const TraceInstr &instr)
{
    if (instr.hasDst() && warp.pendingWrites.test(instr.dst)) {
        return true;
    }
    for (uint8_t src : instr.srcs) {
        if (src != kNoReg && warp.pendingWrites.test(src)) {
            return true;
        }
    }
    return false;
}

bool
Sm::tryIssue(WarpState &warp, Cycle now, Cycle &wake)
{
    // Warps at a barrier are woken by another warp's issue.
    if (!warp.live || warp.atBarrier || warp.pc >= warp.trace.instrs.size()) {
        return false;
    }
    const TraceInstr &instr = warp.trace.instrs[warp.pc];

    // Register scoreboard: stall on RAW and WAW hazards. Most warps have
    // no pending writes at all; one bitset sweep skips the per-operand
    // tests in that common case.
    if (warp.pendingWrites.any() && scoreboardHazard(warp, instr)) {
        scoreboardParked_ |= slotBit(warp.slot);
        return false;
    }

    StreamSlot &stream_slot = streamSlots_[warp.streamIdx];
    const OpClass cls = opcodeClass(instr.opcode);
    switch (cls) {
      case OpClass::FP32:
      case OpClass::INT:
      case OpClass::SFU:
      case OpClass::Tensor: {
        UnitPool &pool = units_[static_cast<size_t>(cls)];
        if (pool.minFree() > now) {
            wake = std::min(wake, pool.minFree());
            return false;
        }
        pool.take(now);
        if (instr.hasDst()) {
            warp.pendingWrites.set(instr.dst);
            scheduleWriteback(warp.slot, instr.dst,
                              now + cfg_.latencyFor(cls));
        }
        break;
      }
      case OpClass::MemShared: {
        if (smemPortFreeAt_ > now) {
            wake = std::min(wake, smemPortFreeAt_);
            return false;
        }
        const uint32_t serial = smemBanks_.conflictCycles(instr.addrs);
        smemPortFreeAt_ = now + serial;
        StreamStats &st = stream_slot.stats;
        st.smemAccesses++;
        st.smemBankConflicts += serial - 1;
        if (instr.hasDst()) {
            warp.pendingWrites.set(instr.dst);
            scheduleWriteback(warp.slot, instr.dst,
                              now + cfg_.smemLatency + serial - 1);
        }
        break;
      }
      case OpClass::MemConst:
        if (instr.hasDst()) {
            warp.pendingWrites.set(instr.dst);
            scheduleWriteback(warp.slot, instr.dst, now + cfg_.constLatency);
        }
        break;
      case OpClass::MemGlobal:
      case OpClass::MemTexture:
        // The queue-limit check is the only way issueMemory can refuse;
        // doing it here against the warp's cached limit keeps the
        // (overwhelmingly common) full-queue rejection to two loads.
        if (ldstQueue_.size() >= warp.ldstLimit) {
            ldstRoomParked_ |= slotBit(warp.slot);
            return false;
        }
        issueMemory(warp, instr, now);
        break;
      case OpClass::Barrier: {
        CtaState &cta = ctaPool_[warp.ctaKey];
        warp.atBarrier = true;
        if (++cta.warpsAtBarrier == cta.liveWarps) {
            releaseBarrier(cta);
        }
        break;
      }
      case OpClass::Control:
        break;
      default:
        panic("unhandled op class %d", static_cast<int>(cls));
    }

    warp.pc++;
    stream_slot.stats.instructions++;
    stream_slot.issued++;

    if (instr.opcode == Opcode::EXIT || warp.pc >= warp.trace.instrs.size()) {
        finishWarp(warp, now);
    }
    return true;
}

void
Sm::beginMemPhase(Cycle now)
{
    (void)now;
    memPortsLeft_ = cfg_.l1PortsPerCycle;
    // The per-cycle retry cap keeps a deeply backlogged SM from flushing
    // an arbitrarily long retry queue in one cycle ahead of fresh
    // requests.
    memRetriesLeft_ = cfg_.maxFabricRetriesPerCycle;
    memRetryBlocked_ = false;
    memLdstBlocked_ = false;
}

bool
Sm::memPhaseGrantRetry(Cycle now)
{
    // Re-send the head of the egress retry queue (FIFO). A refusal
    // blocks only this stage for the rest of the cycle — bank queues
    // drain after the SM phases, so re-probing the same full bank within
    // the cycle cannot succeed — while fresh LDST lines may still land
    // on other banks in the LDST rounds.
    if (memRetryBlocked_ || fabricRetry_.empty() || memRetriesLeft_ == 0) {
        return false;
    }
    if (!fabric_->submitToL2(fabricRetry_.front().req, now)) {
        memRetryBlocked_ = true;
        return false;
    }
    const Cycle waited = now - fabricRetry_.front().parkedAt;
    if (waited > maxFabricRetryWait_) {
        maxFabricRetryWait_ = waited;
    }
    fabricRetry_.pop_front();
    --memRetriesLeft_;
    return true;
}

bool
Sm::memPhaseGrantLdst(Cycle now)
{
    if (memLdstBlocked_) {
        return false;
    }
    const LdstOutcome outcome = stepLdstOne(now);
    if (outcome == LdstOutcome::Blocked) {
        memLdstBlocked_ = true;
    }
    return outcome == LdstOutcome::Progress;
}

Sm::LdstOutcome
Sm::stepLdstOne(Cycle now)
{
    if (memPortsLeft_ == 0 || ldstQueue_.empty()) {
        return LdstOutcome::Idle;
    }
    LdstEntry &entry = ldstQueue_.front();
    StreamStats &st = streamSlots_[entry.streamIdx].stats;
    const Addr line = entry.lines.back();

    if (entry.write) {
        // Write-through, no-allocate L1. A refused store parks in the
        // egress retry queue like a refused read (the NoC egress port
        // holds both), bounded by the LDST queue depth so backpressure
        // still propagates to issue once the fabric stays saturated.
        MemRequest req;
        req.line = line;
        req.write = true;
        req.stream = entry.stream;
        req.dataClass = entry.cls;
        req.smId = smId_;
        if (!fabric_->submitToL2(req, now)) {
            if (fabricRetry_.size() >= cfg_.ldstQueueDepth) {
                return LdstOutcome::Blocked;
            }
            fabricRetry_.push_back({req, now});
        }
        // The store left the LDST unit (accepted or parked): touch the
        // tag array and count the access exactly once — the retry path
        // never counts, so a parked store cannot inflate either counter.
        l1_.access(line, true, entry.stream, entry.cls, false);
        st.l1Accesses++;
    } else {
        // Load path through the unified L1. One MSHR probe serves the
        // refusal test, the merge test and the allocation: the L1 tag
        // access in between never touches the MSHR.
        const Mshr::Lookup at = l1Mshr_.lookup(line);
        if (loadRefused(at, line, entry.stream)) {
            // The L1 refuses this load until memResponse or a new head.
            ldstParked_ = true;
            return LdstOutcome::Blocked;
        }
        st.l1Accesses++;
        if (entry.texture) {
            st.l1TexAccesses++;
        }
        if (at.pending) {
            // Merge into a pending miss.
            const auto outcome =
                l1Mshr_.allocate(at, line, entry.tracker, now);
            panic_if(outcome != Mshr::Outcome::Merged,
                     "L1 MSHR merge failed after capacity check");
            st.l1MshrMerges++;
        } else if (l1_.access(line, false, entry.stream, entry.cls,
                              /*allocate_on_miss=*/false).hit) {
            st.l1Hits++;
            LoadTracker *tracker = findTracker(entry.tracker);
            panic_if(tracker == nullptr, "L1 hit for dead tracker");
            if (--tracker->remaining == 0) {
                scheduleWriteback(tracker->warpSlot, tracker->reg,
                                  now + cfg_.l1HitLatency);
                freeTracker(static_cast<uint32_t>(
                    entry.tracker & ((1ull << kTrackerIdxBits) - 1)));
            }
        } else {
            const auto outcome =
                l1Mshr_.allocate(at, line, entry.tracker, now);
            panic_if(outcome != Mshr::Outcome::NewEntry,
                     "L1 MSHR allocate failed after capacity check");
            MemRequest req;
            req.line = line;
            req.write = false;
            req.stream = entry.stream;
            req.dataClass = entry.cls;
            req.smId = smId_;
            req.completionKey = line;
            if (!fabric_->submitToL2(req, now)) {
                // Fabric refused: the MSHR entry stays allocated; park
                // the request in the egress queue and re-send later.
                fabricRetry_.push_back({req, now});
            }
        }
    }

    entry.lines.pop_back();
    --memPortsLeft_;
    if (entry.lines.empty()) {
        recycleLines(std::move(entry.lines));
        ldstQueue_.pop_front();
        // Queue room may unblock a warp's memory instruction. (An L1 hit
        // that completes a load wakes the SM through its writeback.)
        wakeCycle_ = 0;
        ldstRoomParked_ = 0;
    }
    return LdstOutcome::Progress;
}

void
Sm::memResponse(const MemRequest &resp, Cycle now)
{
    // Fill the unified L1 (reads only; write-through stores never respond).
    // fill(), not access(): the returning data is not a demand access, so
    // it must not count toward the L1's access/miss totals or steal LRU
    // recency from resident lines. The fill and the freed MSHR entry are
    // the only changes that can unblock a parked LDST head.
    ldstParked_ = false;
    l1_.fill(resp.line, false, resp.stream, resp.dataClass);
    for (uint64_t key : l1Mshr_.fill(resp.line)) {
        LoadTracker *tracker = findTracker(key);
        if (tracker == nullptr) {
            continue;
        }
        if (--tracker->remaining == 0) {
            scheduleWriteback(tracker->warpSlot, tracker->reg, now);
            freeTracker(static_cast<uint32_t>(
                key & ((1ull << kTrackerIdxBits) - 1)));
        }
    }
}

const char *
Sm::IntegrityProbe::dominantStall() const
{
    if (activeWarps == 0) {
        return ldstQueueDepth + outstandingLoads + fabricRetryDepth > 0
            ? "mem-drain"
            : "idle";
    }
    const char *label = "ready";
    uint32_t best = ready;
    const std::pair<const char *, uint32_t> buckets[] = {
        {"scoreboard", waitScoreboard}, {"barrier", atBarrier},
        {"exec-unit", waitExecUnit},    {"smem-port", waitSmem},
        {"ldst-full", waitLdst},
    };
    for (const auto &[name, count] : buckets) {
        if (count > best) {
            best = count;
            label = name;
        }
    }
    return issueFrozen ? "frozen" : label;
}

Sm::IntegrityProbe
Sm::probe(Cycle now) const
{
    IntegrityProbe p;
    p.activeWarps = activeWarps_;
    p.activeCtas = static_cast<uint32_t>(liveCtaSlots_.size());
    p.ldstQueueDepth = ldstQueue_.size();
    p.fabricRetryDepth = fabricRetry_.size();
    p.fabricRetryMaxWait = maxFabricRetryWait_;
    p.fabricRetryOldestAge = oldestFabricRetryAge(now);
    p.outstandingLoads = liveTrackers_;
    p.l1MshrEntries = l1Mshr_.entriesInUse();
    p.issueFrozen = issueFrozen_;
    if (p.l1MshrEntries > 0) {
        const auto oldest = l1Mshr_.entries().front();
        p.oldestMissLine = oldest.line;
        p.oldestMissAge = now >= oldest.allocatedAt
            ? now - oldest.allocatedAt
            : 0;
    }
    for (const auto &warp : warps_) {
        if (!warp.live) {
            continue;
        }
        if (warp.atBarrier) {
            p.atBarrier++;
            continue;
        }
        if (warp.pc >= warp.trace.instrs.size()) {
            p.ready++;   // Retires at its next issue opportunity.
            continue;
        }
        const TraceInstr &instr = warp.trace.instrs[warp.pc];
        if (scoreboardHazard(warp, instr)) {
            p.waitScoreboard++;
            continue;
        }
        const OpClass cls = opcodeClass(instr.opcode);
        switch (cls) {
          case OpClass::FP32:
          case OpClass::INT:
          case OpClass::SFU:
          case OpClass::Tensor: {
            // The pool minimum the issue path tests, so a hang report
            // cannot disagree with issue.
            if (units_[static_cast<size_t>(cls)].minFree() > now) {
                p.waitExecUnit++;
            } else {
                p.ready++;
            }
            break;
          }
          case OpClass::MemShared:
            if (smemPortFreeAt_ > now) {
                p.waitSmem++;
            } else {
                p.ready++;
            }
            break;
          case OpClass::MemGlobal:
          case OpClass::MemTexture:
            if (ldstQueue_.size() >= ldstLimitFor(warp.stream)) {
                p.waitLdst++;
            } else {
                p.ready++;
            }
            break;
          default:
            p.ready++;
            break;
        }
    }
    return p;
}

bool
Sm::auditAccounting(std::string *detail) const
{
    // Runs on every watchdog tick (possibly every cycle): accumulate on
    // the stack, no per-call allocation.
    uint32_t threads = 0;
    uint32_t registers = 0;
    uint32_t smem = 0;
    uint32_t live_warps = 0;
    for (uint32_t key : liveCtaSlots_) {
        const CtaState &cta = ctaPool_[key];
        threads += cta.footprint.threads;
        registers += cta.footprint.registers;
        smem += cta.footprint.smemBytes;
        live_warps += cta.liveWarps;
    }

    auto fail = [&](const std::string &msg) {
        if (detail) {
            *detail = msg;
        }
        return false;
    };
    using logging_detail::formatMessage;

    if (!quotaBreach_.empty()) {
        return fail(quotaBreach_);
    }

    if (threads != usedThreads_ || registers != usedRegisters_ ||
        smem != usedSmem_) {
        return fail(formatMessage(
            "SM %u tracked usage (thr %u, reg %u, smem %u) != recomputed "
            "(thr %u, reg %u, smem %u)", smId_, usedThreads_,
            usedRegisters_, usedSmem_, threads, registers, smem));
    }
    if (live_warps != activeWarps_) {
        return fail(formatMessage(
            "SM %u tracked active warps %u != recomputed %u", smId_,
            activeWarps_, live_warps));
    }
    uint64_t live_mask = 0;
    for (uint32_t slot = 0; slot < warps_.size(); ++slot) {
        if (warps_[slot].live) {
            live_mask |= slotBit(slot);
        }
    }
    if (live_mask != liveMask_) {
        return fail(formatMessage(
            "SM %u live-warp mask %016llx != recomputed %016llx", smId_,
            static_cast<unsigned long long>(liveMask_),
            static_cast<unsigned long long>(live_mask)));
    }
    if (usedThreads_ > cfg_.maxWarps * kWarpSize ||
        usedRegisters_ > cfg_.registers || usedSmem_ > cfg_.smemBytes) {
        return fail(formatMessage(
            "SM %u allocation (thr %u, reg %u, smem %u) exceeds capacity "
            "(thr %u, reg %u, smem %u)", smId_, usedThreads_,
            usedRegisters_, usedSmem_, cfg_.maxWarps * kWarpSize,
            cfg_.registers, cfg_.smemBytes));
    }
    for (const auto &[stream, used] : usedByStream_) {
        CtaFootprint expect;
        for (uint32_t key : liveCtaSlots_) {
            const CtaState &cta = ctaPool_[key];
            if (cta.stream != stream) {
                continue;
            }
            expect.threads += cta.footprint.threads;
            expect.registers += cta.footprint.registers;
            expect.smemBytes += cta.footprint.smemBytes;
            expect.warps += cta.footprint.warps;
        }
        if (used.threads != expect.threads ||
            used.registers != expect.registers ||
            used.smemBytes != expect.smemBytes ||
            used.warps != expect.warps) {
            return fail(formatMessage(
                "SM %u stream %u tracked usage (thr %u, reg %u, smem %u, "
                "warps %u) != recomputed (thr %u, reg %u, smem %u, warps "
                "%u)", smId_, stream, used.threads, used.registers,
                used.smemBytes, used.warps, expect.threads,
                expect.registers, expect.smemBytes, expect.warps));
        }
    }

    // Every park must still hold: a park whose refusal has cleared is a
    // lost wakeup, and would quietly shift timing.
    for (uint32_t slot = 0; slot < warps_.size(); ++slot) {
        const bool on_scoreboard = (scoreboardParked_ & slotBit(slot)) != 0;
        const bool on_ldst = (ldstRoomParked_ & slotBit(slot)) != 0;
        if (!on_scoreboard && !on_ldst) {
            continue;
        }
        const WarpState &warp = warps_[slot];
        const TraceInstr *instr =
            warp.live && !warp.atBarrier && warp.pc < warp.trace.instrs.size()
            ? &warp.trace.instrs[warp.pc]
            : nullptr;
        const bool hazard = instr != nullptr && scoreboardHazard(warp, *instr);
        if (on_scoreboard && !hazard) {
            return fail(formatMessage(
                "SM %u warp slot %u parked on the scoreboard with no "
                "hazard left", smId_, slot));
        }
        const OpClass cls =
            instr != nullptr ? opcodeClass(instr->opcode) : OpClass::Control;
        if (on_ldst &&
            (hazard ||
             (cls != OpClass::MemGlobal && cls != OpClass::MemTexture) ||
             ldstQueue_.size() < warp.ldstLimit)) {
            return fail(formatMessage(
                "SM %u warp slot %u parked on LDST room with %zu of %u "
                "queue entries used", smId_, slot, ldstQueue_.size(),
                warp.ldstLimit));
        }
    }
    if (ldstParked_) {
        const LdstEntry *head =
            ldstQueue_.empty() ? nullptr : &ldstQueue_.front();
        if (head == nullptr || head->write ||
            !loadRefused(l1Mshr_.lookup(head->lines.back()),
                         head->lines.back(), head->stream)) {
            return fail(formatMessage(
                "SM %u LDST head parked but no longer blocked on the L1 "
                "MSHR", smId_));
        }
    }
    return true;
}

void
Sm::step(Cycle now)
{
    // The fabric-facing memory phase (retry queue + LDST unit) already
    // ran this cycle under the owner's arbiter, before any SM stepped.

    // Commit due register writebacks (clears scoreboard entries). Each
    // pop clears a distinct scoreboard bit, so their order is
    // unobservable. A warp parked on the scoreboard unparks only once
    // its instruction has no hazard left: trying it earlier would refuse
    // it again with no side effect. (A parked warp cannot have issued,
    // so it is live, off any barrier and inside its trace.)
    writebacks_.popDue(now, [this](uint32_t slot, uint8_t reg) {
        WarpState &warp = warps_[slot];
        if (reg != kNoReg) {
            warp.pendingWrites.reset(reg);
        }
        if ((scoreboardParked_ & slotBit(slot)) != 0 &&
            !scoreboardHazard(warp, warp.trace.instrs[warp.pc])) {
            scoreboardParked_ &= ~slotBit(slot);
        }
    });

    // Count active cycles per stream (streams with live warps this
    // cycle), plus any cycles the SM slept through.
    settleCycles(now);

    // A step that issues nothing sleeps until the next writeback or the
    // earliest cycle a refused warp's blocker clears.
    Cycle wake = writebacks_.nextDue();

    // Fault injection: a frozen issue stage stops dead while writebacks
    // and in-flight memory continue, so the SM quietly stops committing —
    // the hang class the forward-progress watchdog exists to diagnose.
    if (issueFrozen_) {
        wakeCycle_ = wake;
        return;
    }

    // GTO issue with stream priorities: each scheduler owns the slots with
    // slot % numSchedulers == id and picks, in order, by (stream priority,
    // greediness, age). The greedy bit keeps a warp issuing back-to-back
    // until it stalls; priority lets graphics warps claim issue slots ahead
    // of a lower-priority async-compute stream.
    //
    // schedOrder_ maintains each scheduler's live slots sorted by
    // (prio, age), so the old gather-and-sort becomes a walk: the single
    // greedy slot is tried when the walk first reaches its priority
    // group, which reproduces the (prio, greedy, age) sort order exactly.
    //
    // Parked warps are skipped: trying one would refuse with no side
    // effect. So is a scheduler whose live warps are all parked, since
    // its walk would try none of them, and the rest of a walk once every
    // untried live warp of the scheduler is parked: a refused walk only
    // adds parks, so the rest would try none of them either.
    bool issued = false;
    auto is_parked = [this](uint32_t slot) {
        return ((scoreboardParked_ | ldstRoomParked_) & slotBit(slot)) != 0;
    };
    for (uint32_t sched = 0; sched < cfg_.numSchedulers; ++sched) {
        // Live slots of this scheduler the walk has not tried yet.
        uint64_t untried = liveMask_ & schedSlots_[sched];
        if ((untried & ~(scoreboardParked_ | ldstRoomParked_)) == 0) {
            continue;
        }
        const auto &order = schedOrder_[sched];
        const uint32_t greedy = greedySlot_[sched];
        bool greedy_pending = greedy != kNoSlotIndex;
        const int greedy_prio = greedy_pending ? warps_[greedy].prio : 0;
        // An EXIT that retires its warp erases it from this order;
        // every successful issue breaks out before the walk resumes.
        for (const uint32_t slot : order) {
            if (greedy_pending && warps_[slot].prio == greedy_prio) {
                greedy_pending = false;
                untried &= ~slotBit(greedy);
                if (!is_parked(greedy) &&
                    tryIssue(warps_[greedy], now, wake)) {
                    greedySlot_[sched] =
                        warps_[greedy].live ? greedy : kNoSlotIndex;
                    issued = true;
                    break;
                }
            }
            if ((untried & ~(scoreboardParked_ | ldstRoomParked_)) == 0) {
                break;
            }
            if (slot == greedy || is_parked(slot)) {
                continue;
            }
            untried &= ~slotBit(slot);
            if (tryIssue(warps_[slot], now, wake)) {
                greedySlot_[sched] =
                    warps_[slot].live ? slot : kNoSlotIndex;
                issued = true;
                break;
            }
        }
    }
    // An issue may have unblocked more; otherwise every live warp was
    // refused, and nothing changes until the wake cycle or an outside
    // event.
    wakeCycle_ = issued ? now + 1 : wake;
}

void
Sm::foldStats()
{
    for (StreamSlot &slot : streamSlots_) {
        stats_->stream(slot.stream).absorb(slot.stats);
        slot.stats = StreamStats{};
    }
}

void
Sm::settleCycles(Cycle now)
{
    if (now <= countedThrough_) {
        return;
    }
    const uint64_t count = now - countedThrough_;
    countedThrough_ = now;
    for (StreamSlot &slot : streamSlots_) {
        if (slot.liveWarps > 0) {
            slot.stats.cycles += count;
        }
    }
}

} // namespace crisp
