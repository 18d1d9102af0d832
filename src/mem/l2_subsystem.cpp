#include "mem/l2_subsystem.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "telemetry/sink.hpp"

namespace crisp
{

namespace
{

/** Consecutive misses in one bank that count as a burst. */
constexpr uint32_t kMissBurstStreak = 16;

/** New DRAM row conflicts accumulated before a burst event is emitted. */
constexpr uint64_t kRowConflictBurst = 64;

} // namespace

L2Subsystem::L2Subsystem(const L2Config &cfg, StatsRegistry *stats)
    : cfg_(cfg),
      stats_(stats),
      requestLink_(cfg.icntBytesPerCycle, cfg.icntLatency),
      responseLink_(cfg.icntBytesPerCycle, cfg.icntLatency),
      dram_(cfg.dramBytesPerCycle, cfg.dramLatency)
{
    fatal_if(cfg_.numBanks == 0, "L2 needs at least one bank");
    panic_if(stats_ == nullptr, "L2 needs a stats registry");
    banks_.reserve(cfg_.numBanks);
    bankQueues_.resize(cfg_.numBanks);
    busyBanks_ = WorkSet(cfg_.numBanks);
    bankFreeAt_.assign(cfg_.numBanks, 0);
    bankWake_.assign(cfg_.numBanks, 0);
    bankFull_.assign(cfg_.numBanks, 0);
    for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
        banks_.emplace_back(cfg_.bankGeometry);
        // Only an access listener reads hitLruPos (setAccessListener).
        banks_.back().setHitLruPosReporting(false);
        mshrs_.emplace_back(cfg_.mshrEntriesPerBank,
                            cfg_.mshrTargetsPerEntry);
    }
    missStreaks_.assign(cfg_.numBanks, 0);
}

void
L2Subsystem::setTelemetry(telemetry::TelemetrySink *sink)
{
    telemetry_ = sink;
    profiler_ = sink && sink->config().selfProfile ? &sink->profiler()
                                                   : nullptr;
    rowConflictsSeen_ = dram_.rowConflicts();
}

void
L2Subsystem::noteBankMiss(uint32_t bank, StreamId stream, Cycle now)
{
    const uint32_t streak = ++missStreaks_[bank];
    if (telemetry_ && streak % kMissBurstStreak == 0) {
        telemetry_->emit({now, telemetry::EventKind::MissBurst, bank,
                          stream, streak, 0});
    }
}

void
L2Subsystem::setResponseHandler(ResponseHandler handler)
{
    onResponse_ = std::move(handler);
}

void
L2Subsystem::setAccessListener(AccessListener listener)
{
    onAccess_ = std::move(listener);
    for (auto &bank : banks_) {
        bank.setHitLruPosReporting(static_cast<bool>(onAccess_));
    }
}

namespace
{

// The L2 MSHR merges misses from different SMs, and on a multi-GPU
// machine from different devices; each target key must carry the
// requesting device and SM so the fill can route every response
// correctly: device in bits 60-63, SM + 1 in bits 48-59, the completion
// key below.
constexpr uint32_t kTargetSmBits = 12;
constexpr uint32_t kTargetDeviceBits = 4;

uint64_t
encodeTarget(const MemRequest &req)
{
    if (!req.expectsResponse()) {
        return MemRequest::kNoCompletion;
    }
    panic_if(req.completionKey >= (1ull << 48),
             "completion key too large to encode");
    panic_if(req.smId + 1 >= (1u << kTargetSmBits) ||
                 req.srcDevice >= (1u << kTargetDeviceBits),
             "SM %u of device %u too large to encode", req.smId,
             req.srcDevice);
    return static_cast<uint64_t>(req.srcDevice) << (48 + kTargetSmBits) |
        (static_cast<uint64_t>(req.smId) + 1) << 48 | req.completionKey;
}

void
decodeTarget(uint64_t key, MemRequest &req)
{
    req.srcDevice = static_cast<uint32_t>(key >> (48 + kTargetSmBits));
    req.smId = static_cast<uint32_t>(
                   (key >> 48) & ((1u << kTargetSmBits) - 1)) - 1;
    req.completionKey = key & ((1ull << 48) - 1);
}

} // namespace

uint32_t
L2Subsystem::bankFor(Addr line, StreamId stream) const
{
    const Addr blk = line / kLineBytes;
    const uint64_t h = blk ^ (blk >> 7) ^ (blk >> 17);
    if (bankMasks_.empty()) {
        return static_cast<uint32_t>(h % cfg_.numBanks);
    }
    auto it = bankMasks_.find(stream);
    if (it == bankMasks_.end() || it->second == 0) {
        return static_cast<uint32_t>(h % cfg_.numBanks);
    }
    // Hash across only the banks enabled in this stream's mask.
    const uint64_t mask = it->second;
    const uint32_t allowed = __builtin_popcountll(mask);
    uint32_t pick = static_cast<uint32_t>(h % allowed);
    for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
        if (mask & (1ull << b)) {
            if (pick == 0) {
                return b;
            }
            --pick;
        }
    }
    panic("bank mask %llx has no banks below numBanks",
          static_cast<unsigned long long>(mask));
}

bool
L2Subsystem::submit(MemRequest req, Cycle now)
{
    const uint32_t bank = bankFor(req.line, req.stream);
    if (bankQueues_[bank].size() >= cfg_.bankQueueCapacity) {
        return false;
    }
    // Request packet: header only for reads, header + line data for writes.
    const uint32_t bytes = req.write ? kLineBytes + 8 : 8;
    req.readyAt = requestLink_.transfer(now, bytes);
    if (req.expectsResponse()) {
        ++readsAccepted_;
        ++queuedReads_;
    }
    auto &queue = bankQueues_[bank];
    queue.push_back(std::move(req));
    bankFull_[bank] = queue.size() >= cfg_.bankQueueCapacity ? 1 : 0;
    if (queue.size() == 1) {
        busyBanks_.insert(bank);
        bankWake_[bank] = headWake(bank);
        earliestBankWake_ = std::min(earliestBankWake_, bankWake_[bank]);
    }
    return true;
}

void
L2Subsystem::respond(MemRequest req, Cycle now, Cycle ready)
{
    if (!req.expectsResponse()) {
        return;
    }
    (void)now;
    const Cycle delivered = responseLink_.transfer(ready, kLineBytes + 8);
    pendingResponses_.push(delivered, std::move(req));
}

void
L2Subsystem::popHead(uint32_t b, Cycle now, Cycle occupancy)
{
    auto &queue = bankQueues_[b];
    if (queue.front().expectsResponse()) {
        --queuedReads_;
    }
    queue.pop_front();
    bankFull_[b] = 0;
    bankFreeAt_[b] = now + occupancy;
    if (!queue.empty()) {
        bankWake_[b] = headWake(b);
    }
}

void
L2Subsystem::serviceBank(uint32_t b, Cycle now, Cycle occupancy)
{
    MemRequest &req = bankQueues_[b].front();
    auto &st = stats_->stream(req.stream);

    // One MSHR probe serves the merge test, the capacity test and the
    // allocation: nothing below touches the MSHR before allocate().
    Mshr &mshr = mshrs_[b];
    const Mshr::Lookup at = mshr.lookup(req.line);
    if (at.pending) {
        // Merge with the in-flight fill.
        const auto outcome =
            mshr.allocate(at, req.line, encodeTarget(req), now);
        if (outcome == Mshr::Outcome::Stall) {
            return;   // still due: retry next cycle
        }
        st.l2Accesses++;
        st.l2MshrMerges++;
        ++mergedAccesses_;
        if (onAccess_) {
            onAccess_(req.stream, req.line, false, 0);
        }
        noteBankMiss(b, req.stream, now);
        popHead(b, now, occupancy);
        return;
    }

    if (mshr.full()) {
        // No MSHR space for a potential miss: stall before touching the
        // tag array so a retried miss still pays the DRAM round trip.
        return;
    }

    auto res = banks_[b].access(req.line, req.write, req.stream,
                                req.dataClass);
    st.l2Accesses++;
    if (onAccess_) {
        onAccess_(req.stream, req.line, res.hit, res.hitLruPos);
    }
    if (res.hit) {
        st.l2Hits++;
        missStreaks_[b] = 0;
        respond(req, now, now + cfg_.l2Latency);
        popHead(b, now, occupancy);
        return;
    }

    // Miss: the access() above already installed the tag; roll the
    // timing through DRAM. Dirty victim costs a writeback.
    noteBankMiss(b, req.stream, now);
    if (res.evicted && res.evictedDirty) {
        dram_.service(now, kLineBytes, res.evictedLine);
        st.dramWrites++;
    }
    const auto outcome = mshr.allocate(at, req.line, encodeTarget(req), now);
    panic_if(outcome != Mshr::Outcome::NewEntry,
             "MSHR allocate failed after capacity check");
    st.dramReads++;
    const Cycle data_ready = dram_.service(now, kLineBytes, req.line);
    pendingFills_.push(data_ready, PendingFill{req, b});
    popHead(b, now, occupancy);
}

void
L2Subsystem::step(Cycle now)
{
    // 1. Complete DRAM fills whose data has returned.
    {
    telemetry::SelfProfiler::Scope prof_scope(profiler_,
                                              telemetry::Component::Dram);
    while (pendingFills_.dueBy(now)) {
        auto [ready, pf] = pendingFills_.pop();
        if (faultHook_) {
            Cycle delay = 0;
            const auto action = faultHook_->onDramFill(pf.req, now, delay);
            if (action == MemFaultHook::Action::Drop) {
                // The fill is lost: the MSHR entry stays allocated and
                // every merged waiter starves — the leak the integrity
                // layer's MSHR-age checker exists to catch.
                continue;
            }
            if (action == MemFaultHook::Action::Delay) {
                pendingFills_.push(now + std::max<Cycle>(delay, 1),
                                   std::move(pf));
                continue;
            }
        }
        // The tag was installed by access() at miss time; completing the
        // fill is not a demand access, so it must not perturb the bank's
        // hit/access counters (that double-count made a pure-miss stream
        // read ~50% bank hit rate). fill() validates the line in place,
        // or — if the tag was evicted between miss and fill — re-installs
        // it, reporting the single interim-eviction victim.
        auto &bank = banks_[pf.bank];
        const auto res = bank.fill(pf.req.line, pf.req.write, pf.req.stream,
                                   pf.req.dataClass);
        ++fillsCompleted_;
        if (res.evicted && res.evictedDirty) {
            // Dirty writeback consumes DRAM write bandwidth, charged to
            // the filling stream exactly once.
            dram_.service(ready, kLineBytes, res.evictedLine);
            stats_->stream(pf.req.stream).dramWrites++;
        }
        for (uint64_t key : mshrs_[pf.bank].fill(pf.req.line)) {
            if (key == MemRequest::kNoCompletion) {
                continue;
            }
            MemRequest resp = pf.req;
            decodeTarget(key, resp);
            respond(std::move(resp), now, ready);
        }
    }
    }

    // 2. Each due bank services its head at its slice bandwidth.
    if (earliestBankWake_ <= now) {
    telemetry::SelfProfiler::Scope prof_scope(profiler_,
                                              telemetry::Component::L2);
    const Cycle bank_occupancy = static_cast<Cycle>(
        std::max(1.0, kLineBytes / cfg_.bankBytesPerCycle));
    // Servicing a bank never queues onto another, so the walk sees the
    // busy set as it stood at the start of the phase, and the wakes it
    // leaves behind give the next earliest one.
    Cycle earliest = kNeverCycle;
    busyBanks_.forEachFrom(0, [&](size_t b) {
        if (bankWake_[b] <= now) {
            serviceBank(static_cast<uint32_t>(b), now, bank_occupancy);
            if (bankQueues_[b].empty()) {
                busyBanks_.erase(b);
                return;
            }
        }
        earliest = std::min(earliest, bankWake_[b]);
    });
    earliestBankWake_ = earliest;
    }

    if (telemetry_) {
        const uint64_t conflicts = dram_.rowConflicts();
        if (conflicts - rowConflictsSeen_ >= kRowConflictBurst) {
            telemetry_->emit({now, telemetry::EventKind::RowConflictBurst,
                              0, 0, conflicts, 0});
            rowConflictsSeen_ = conflicts;
        }
    }

    // 3. Deliver due responses to the SMs.
    {
    telemetry::SelfProfiler::Scope prof_scope(profiler_,
                                              telemetry::Component::Icnt);
    while (pendingResponses_.dueBy(now)) {
        MemRequest resp = pendingResponses_.pop().second;
        panic_if(!onResponse_, "L2 response with no handler installed");
        if (faultHook_) {
            Cycle delay = 0;
            const auto action = faultHook_->onResponse(resp, now, delay);
            if (action == MemFaultHook::Action::Drop) {
                // Lost response: the requesting SM's L1 MSHR entry and
                // load tracker are now orphaned; the conservation checker
                // sees one more issued read than completed + outstanding.
                continue;
            }
            if (action == MemFaultHook::Action::Delay) {
                pendingResponses_.push(now + std::max<Cycle>(delay, 1),
                                       std::move(resp));
                continue;
            }
        }
        ++responsesDelivered_;
        onResponse_(resp);
    }
    }
}

L2Subsystem::InFlight
L2Subsystem::inFlight() const
{
    InFlight f;
    for (const auto &q : bankQueues_) {
        f.queuedRequests += q.size();
    }
    f.queuedReads = queuedReads_;
    for (const auto &mshr : mshrs_) {
        f.mshrEntries += mshr.entriesInUse();
        f.mshrResponseTargets += mshr.responseTargets();
    }
    f.pendingFills = pendingFills_.size();
    f.pendingResponses = pendingResponses_.size();
    return f;
}

std::vector<L2Subsystem::MshrEntryInfo>
L2Subsystem::mshrEntries() const
{
    std::vector<MshrEntryInfo> out;
    for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
        for (const auto &entry : mshrs_[b].entries()) {
            MshrEntryInfo info;
            info.bank = b;
            info.line = entry.line;
            info.allocatedAt = entry.allocatedAt;
            info.targets = entry.targets;
            for (uint64_t key : entry.keys) {
                if (key == MemRequest::kNoCompletion) {
                    continue;
                }
                MemRequest decoded;
                decodeTarget(key, decoded);
                info.smIds.push_back(decoded.smId);
            }
            out.push_back(std::move(info));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const MshrEntryInfo &a, const MshrEntryInfo &b) {
                  return a.allocatedAt < b.allocatedAt;
              });
    return out;
}

Cycle
L2Subsystem::oldestMshrAllocation() const
{
    Cycle oldest = ~0ull;
    for (const auto &mshr : mshrs_) {
        if (mshr.entriesInUse() > 0) {
            oldest = std::min(oldest, mshr.oldestAllocation());
        }
    }
    return oldest;
}

bool
L2Subsystem::lineInFlightFor(uint32_t smId, Addr line) const
{
    for (const auto &queue : bankQueues_) {
        for (const MemRequest &req : queue) {
            if (req.line == line && req.smId == smId &&
                req.expectsResponse()) {
                return true;
            }
        }
    }
    for (const auto &mshr : mshrs_) {
        for (uint64_t key : mshr.keysFor(line)) {
            if (key == MemRequest::kNoCompletion) {
                continue;
            }
            MemRequest decoded;
            decodeTarget(key, decoded);
            if (decoded.smId == smId) {
                return true;
            }
        }
    }
    for (const auto &[due, req] : pendingResponses_) {
        if (req.line == line && req.smId == smId) {
            return true;
        }
    }
    return false;
}

bool
L2Subsystem::fillInFlight(uint32_t bank, Addr line) const
{
    for (const auto &[due, fill] : pendingFills_) {
        if (fill.bank == bank && fill.req.line == line) {
            return true;
        }
    }
    return false;
}

std::vector<size_t>
L2Subsystem::bankQueueDepths() const
{
    std::vector<size_t> depths;
    depths.reserve(bankQueues_.size());
    for (const auto &q : bankQueues_) {
        depths.push_back(q.size());
    }
    return depths;
}

Cycle
L2Subsystem::nextEventCycle(Cycle now) const
{
    Cycle wake = kNeverCycle;
    auto consider = [&](Cycle at) {
        wake = std::min(wake, std::max(at, now + 1));
    };
    if (!pendingFills_.empty()) {
        consider(pendingFills_.frontDue());
    }
    if (!pendingResponses_.empty()) {
        consider(pendingResponses_.frontDue());
    }
    // kNeverCycle with no busy bank. An MSHR-stalled head keeps its past
    // wake, which reads as the next cycle; the fill that unblocks it is
    // already covered above.
    consider(earliestBankWake_);
    return wake;
}

bool
L2Subsystem::idle() const
{
    return busyBanks_.empty() && pendingFills_.empty() &&
        pendingResponses_.empty();
}

bool
L2Subsystem::auditWorkSets(std::string *detail) const
{
    auto fail = [&](const std::string &msg) {
        if (detail) {
            *detail = msg;
        }
        return false;
    };
    using logging_detail::formatMessage;
    size_t busy = 0;
    Cycle earliest = kNeverCycle;
    for (uint32_t b = 0; b < cfg_.numBanks; ++b) {
        const bool queued = !bankQueues_[b].empty();
        busy += queued ? 1 : 0;
        if (busyBanks_.contains(b) != queued) {
            return fail(formatMessage(
                "L2 bank %u busy flag %d but its queue holds %zu requests",
                b, busyBanks_.contains(b) ? 1 : 0, bankQueues_[b].size()));
        }
        const bool full = bankQueues_[b].size() >= cfg_.bankQueueCapacity;
        if ((bankFull_[b] != 0) != full) {
            return fail(formatMessage(
                "L2 bank %u full flag %d but its queue holds %zu of %u",
                b, bankFull_[b], bankQueues_[b].size(),
                cfg_.bankQueueCapacity));
        }
        if (!queued) {
            continue;
        }
        const Cycle head = headWake(b);
        const Cycle wake = bankWake_[b];
        if (wake != head) {
            return fail(formatMessage(
                "L2 bank %u wakes at %llu but its head can act at %llu",
                b, static_cast<unsigned long long>(wake),
                static_cast<unsigned long long>(head)));
        }
        earliest = std::min(earliest, wake);
    }
    if (busy != busyBanks_.count()) {
        return fail(formatMessage("L2 busy-bank count %zu != recomputed %zu",
                                  busyBanks_.count(), busy));
    }
    if (earliest != earliestBankWake_) {
        return fail(formatMessage(
            "L2 earliest bank wake %llu != recomputed %llu",
            static_cast<unsigned long long>(earliestBankWake_),
            static_cast<unsigned long long>(earliest)));
    }
    if (!pendingFills_.ordered()) {
        return fail("L2 pending fills out of due-cycle order");
    }
    if (!pendingResponses_.ordered()) {
        return fail("L2 pending responses out of due-cycle order");
    }
    return true;
}

void
L2Subsystem::setStreamBankMask(StreamId stream, uint64_t mask)
{
    const uint64_t valid = cfg_.numBanks >= 64
        ? ~0ull
        : ((1ull << cfg_.numBanks) - 1);
    fatal_if((mask & valid) == 0, "bank mask selects no valid banks");
    bankMasks_[stream] = mask & valid;
    rerouted();
}

void
L2Subsystem::clearBankMasks()
{
    bankMasks_.clear();
    rerouted();
}

void
L2Subsystem::setStreamSetWindow(StreamId stream, uint32_t first,
                                uint32_t count)
{
    for (auto &bank : banks_) {
        bank.setStreamSetWindow(stream, first, count);
    }
}

void
L2Subsystem::clearSetWindows()
{
    for (auto &bank : banks_) {
        bank.clearSetWindows();
    }
}

CacheComposition
L2Subsystem::composition() const
{
    CacheComposition total;
    for (const auto &bank : banks_) {
        const CacheComposition c = bank.composition();
        total.validLines += c.validLines;
        total.totalLines += c.totalLines;
        total.strandedLines += c.strandedLines;
        for (size_t i = 0; i < c.byClass.size(); ++i) {
            total.byClass[i] += c.byClass[i];
        }
    }
    return total;
}

uint64_t
L2Subsystem::accesses() const
{
    return tagAccesses() + mergedAccesses_;
}

uint64_t
L2Subsystem::tagAccesses() const
{
    uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank.accesses();
    }
    return total;
}

uint64_t
L2Subsystem::mshrPrimaryAllocations() const
{
    uint64_t total = 0;
    for (const auto &mshr : mshrs_) {
        total += mshr.primaryAllocations();
    }
    return total;
}

uint64_t
L2Subsystem::mshrFillsServed() const
{
    uint64_t total = 0;
    for (const auto &mshr : mshrs_) {
        total += mshr.fillsServed();
    }
    return total;
}

void
L2Subsystem::countQueuedByStream(SmallFlatMap<StreamId, uint64_t> &out) const
{
    for (const auto &q : bankQueues_) {
        for (const auto &req : q) {
            ++out[req.stream];
        }
    }
}

uint64_t
L2Subsystem::hits() const
{
    uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank.hits();
    }
    return total;
}

double
L2Subsystem::hitRate() const
{
    const uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(a);
}

double
L2Subsystem::dramBusyCycles() const
{
    return dram_.busyCycles();
}

uint64_t
L2Subsystem::dramRequests() const
{
    return dram_.requests();
}

} // namespace crisp
