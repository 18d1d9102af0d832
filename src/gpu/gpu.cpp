#include "gpu/gpu.hpp"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "common/logging.hpp"
#include "gpu/machine.hpp"
#include "integrity/checks.hpp"
#include "integrity/fault_injector.hpp"
#include "telemetry/sink.hpp"

namespace crisp
{

namespace
{

/** Drawcall display name: the kernel name minus its stage suffix. */
std::string
drawcallName(const std::string &kernel_name)
{
    const size_t dot = kernel_name.rfind('.');
    return dot == std::string::npos ? kernel_name
                                    : kernel_name.substr(0, dot);
}

} // namespace

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg)
{
    fatal_if(cfg_.numSms == 0, "GPU needs at least one SM");
    l2_ = std::make_unique<L2Subsystem>(cfg_.l2, &stats_);
    l2_->setResponseHandler([this](const MemRequest &resp) {
        // A fill completed on behalf of a peer device goes back out over
        // the fabric; only local fills wake a local SM.
        if (remote_ != nullptr && resp.srcDevice != deviceId_) {
            remote_->submitRemoteResponse(resp, deviceId_, cycle_);
            return;
        }
        panic_if(resp.smId >= sms_.size(), "response for unknown SM %u",
                 resp.smId);
        sms_[resp.smId]->memResponse(resp, cycle_);
        noteMemPhaseWork(*sms_[resp.smId]);
    });
    sms_.reserve(cfg_.numSms);
    for (uint32_t i = 0; i < cfg_.numSms; ++i) {
        sms_.push_back(std::make_unique<Sm>(i, cfg_.sm, this, &stats_));
        allSms_.push_back(i);
    }
    retryPhaseScratch_.reserve(cfg_.numSms);
    ldstPhaseScratch_.reserve(cfg_.numSms);
    memPhaseSms_ = WorkSet(cfg_.numSms);
    dueSms_.reserve(cfg_.numSms);
}

Gpu::~Gpu() = default;

StatsRegistry &
Gpu::stats()
{
    std::as_const(*this).stats();
    return stats_;
}

const StatsRegistry &
Gpu::stats() const
{
    for (const auto &sm : sms_) {
        sm->foldStats();
    }
    return stats_;
}

StreamId
Gpu::createStream(const std::string &name)
{
    const StreamId id = nextStream_++;
    streams_[id].name = name;
    if (telemetry_) {
        telemetry_->registerStream(id, name);
    }
    return id;
}

KernelId
Gpu::enqueueKernel(StreamId stream, KernelInfo info)
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "enqueue on unknown stream %u", stream);
    return enqueueKernelAfter(stream, std::move(info),
                              it->second.lastEnqueued);
}

KernelId
Gpu::enqueueKernelAfter(StreamId stream, KernelInfo info,
                        KernelId depends_on)
{
    return enqueueKernelAfter(stream, std::move(info), depends_on, 0);
}

KernelId
Gpu::enqueueKernelAfter(StreamId stream, KernelInfo info,
                        KernelId depends_on, Cycle delay)
{
    return enqueueInternal(stream, std::move(info), depends_on, delay, 0);
}

KernelId
Gpu::enqueueKernelAt(StreamId stream, KernelInfo info, Cycle not_before)
{
    return enqueueInternal(stream, std::move(info), kNoDependency, 0,
                           not_before);
}

KernelId
Gpu::enqueueInternal(StreamId stream, KernelInfo info, KernelId depends_on,
                     Cycle delay, Cycle not_before)
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "enqueue on unknown stream %u", stream);
    // Dependencies must name a kernel previously enqueued on this stream;
    // anything else would make the new kernel wait forever on an id that
    // can never complete (the classic silent-hang bug this validation and
    // the stream-liveness checker both exist for).
    fatal_if(depends_on != kNoDependency &&
                 !it->second.everEnqueued.count(depends_on),
             "stream %s: kernel %s depends on id %u, which was never "
             "enqueued on this stream", it->second.name.c_str(),
             info.name.c_str(), depends_on);
    fatal_if(!info.source, "kernel %s has no trace source",
             info.name.c_str());
    fatal_if(info.numCtas() == 0, "kernel %s launches zero CTAs",
             info.name.c_str());
    // A CTA that can never fit an empty SM would hang the machine.
    const CtaFootprint fp = CtaFootprint::of(info);
    fatal_if(fp.threads > cfg_.sm.maxWarps * kWarpSize ||
                 fp.registers > cfg_.sm.registers ||
                 fp.smemBytes > cfg_.sm.smemBytes,
             "kernel %s CTA (%u threads, %u regs, %u B smem) exceeds SM "
             "capacity", info.name.c_str(), fp.threads, fp.registers,
             fp.smemBytes);
    info.stream = stream;
    // Count the drawcall's kernels at enqueue time so the drawcall-end
    // event fires only when the *last* of them completes — not in the gap
    // between a vertex kernel finishing and its fragment kernel launching.
    if (info.drawcall != 0) {
        drawcalls_[{stream, info.drawcall}].kernelsLeft++;
    }
    const KernelId id = nextKernel_++;
    QueuedKernel q;
    q.id = id;
    q.info = std::move(info);
    q.dependsOn = depends_on;
    q.delay = delay;
    q.notBefore = not_before;
    // Fault injection: overwrite the (validated) dependency with an id
    // that can never complete, after validation so only the injector can
    // smuggle one in. The stream-liveness checker must catch it.
    if (faultInjector_ && depends_on != kNoDependency &&
        faultInjector_->corruptNextDependency()) {
        q.dependsOn = integrity::FaultInjector::kCorruptDependencyId;
    }
    it->second.queue.push_back(std::move(q));
    it->second.lastEnqueued = id;
    it->second.everEnqueued.insert(id);
    return id;
}

void
Gpu::setPartition(const PartitionConfig &partition)
{
    double total = 0.0;
    for (const auto &[id, share] : partition.share) {
        fatal_if(!streams_.count(id),
                 "partition names stream %u, which does not exist", id);
        fatal_if(share < 0.0,
                 "negative partition share %.3f for stream %u (%s)", share,
                 id, streams_.at(id).name.c_str());
        total += share;
    }
    fatal_if(total > 1.0 + 1e-9,
             "partition shares sum to %.3f (must be <= 1.0)", total);
    fatal_if(partition.priorityStream != kInvalidStream &&
                 !streams_.count(partition.priorityStream),
             "priority stream %u does not exist", partition.priorityStream);
    partition_ = partition;
    applyPartition();
}

void
Gpu::addController(GpuController *controller)
{
    panic_if(controller == nullptr, "null controller");
    controllers_.push_back(controller);
}

void
Gpu::setTelemetry(telemetry::TelemetrySink *sink)
{
    telemetry_ = sink;
    profiler_ = sink && sink->config().selfProfile ? &sink->profiler()
                                                   : nullptr;
    l2_->setTelemetry(sink);
    sampleInterval_ = sink ? sink->config().sampleInterval : 0;
    if (sink) {
        for (const auto &[id, ss] : streams_) {
            sink->registerStream(id, ss.name);
        }
    }
    // Arm the sampler: the first sample lands on the next tick.
    nextSample_ = 0;
    // Column ids belong to the sink's series: re-resolve for a new sink.
    sampleColumns_ = SampleColumns{};
}

void
Gpu::setFaultInjector(integrity::FaultInjector *injector)
{
    faultInjector_ = injector;
    l2_->setFaultHook(injector);
    if (injector == nullptr) {
        for (auto &sm : sms_) {
            sm->setIssueFrozen(false);
        }
    }
}

Sm &
Gpu::sm(uint32_t index)
{
    fatal_if(index >= sms_.size(), "SM index %u out of range (GPU has %u "
             "SMs)", index, numSms());
    return *sms_[index];
}

SmQuota
Gpu::quotaFromShare(double share) const
{
    SmQuota q;
    q.maxThreads =
        static_cast<uint32_t>(share * cfg_.sm.maxWarps * kWarpSize);
    q.maxRegisters = static_cast<uint32_t>(share * cfg_.sm.registers);
    q.maxSmemBytes = static_cast<uint32_t>(share * cfg_.sm.smemBytes);
    return q;
}

void
Gpu::setUniformQuota(StreamId stream, double share)
{
    const SmQuota q = quotaFromShare(share);
    for (auto &sm : sms_) {
        sm->setQuota(stream, q);
    }
}

void
Gpu::setSmQuota(uint32_t sm_index, StreamId stream, const SmQuota &quota)
{
    panic_if(sm_index >= sms_.size(), "SM index out of range");
    sms_[sm_index]->setQuota(stream, quota);
}

void
Gpu::applyPartition()
{
    smAssignment_.clear();
    for (auto &sm : sms_) {
        sm->clearQuotas();
        sm->clearIssuePriorities();
    }
    l2_->clearBankMasks();

    if (partition_.policy == PartitionPolicy::Exhaustive) {
        return;
    }

    // Determine the resource share of each stream (default: even split).
    std::vector<StreamId> ids;
    for (const auto &[id, ss] : streams_) {
        ids.push_back(id);
    }
    fatal_if(ids.empty(), "partitioning with no streams");
    std::map<StreamId, double> share;
    double assigned = 0.0;
    uint32_t unassigned = 0;
    for (StreamId id : ids) {
        auto it = partition_.share.find(id);
        if (it != partition_.share.end()) {
            share[id] = it->second;
            assigned += it->second;
        } else {
            ++unassigned;
        }
    }
    for (StreamId id : ids) {
        if (!share.count(id)) {
            share[id] = std::max(0.0, 1.0 - assigned) / unassigned;
        }
    }

    if (partition_.policy == PartitionPolicy::FineGrained) {
        // All SMs run all streams under per-stream quotas.
        for (StreamId id : ids) {
            setUniformQuota(id, share[id]);
        }
        if (partition_.priorityStream != kInvalidStream) {
            for (auto &sm : sms_) {
                sm->setIssuePriority(partition_.priorityStream, -1);
            }
        }
        return;
    }

    // MPS / MiG: contiguous SM ranges proportional to the share.
    uint32_t next_sm = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        uint32_t count = (i + 1 == ids.size())
            ? cfg_.numSms - next_sm
            : std::max<uint32_t>(
                  1, static_cast<uint32_t>(share[ids[i]] * cfg_.numSms));
        count = std::min(count, cfg_.numSms - next_sm);
        auto &assign = smAssignment_[ids[i]];
        for (uint32_t s = 0; s < count; ++s) {
            assign.push_back(next_sm++);
        }
    }

    if (partition_.policy == PartitionPolicy::Mig) {
        // Bank-level L2 partitioning: contiguous bank ranges per stream.
        uint32_t next_bank = 0;
        const uint32_t banks = cfg_.l2.numBanks;
        for (size_t i = 0; i < ids.size(); ++i) {
            uint32_t count = (i + 1 == ids.size())
                ? banks - next_bank
                : std::max<uint32_t>(
                      1, static_cast<uint32_t>(share[ids[i]] * banks));
            count = std::min(count, banks - next_bank);
            uint64_t mask = 0;
            for (uint32_t b = 0; b < count; ++b) {
                mask |= 1ull << (next_bank++);
            }
            l2_->setStreamBankMask(ids[i], mask);
        }
    }
}

const std::vector<uint32_t> &
Gpu::allowedSms(StreamId stream)
{
    auto it = smAssignment_.find(stream);
    return it == smAssignment_.end() ? allSms_ : it->second;
}

Cycle
Gpu::promotionCycle(const StreamState &ss) const
{
    // A kernel enqueued with an absolute arrival time (enqueueKernelAt)
    // is invisible to the scheduler until then; one with a dependency
    // also waits for its completion plus the fixed-function FIFO latency
    // between the two (paper SIV).
    const QueuedKernel &front = ss.queue.front();
    if (front.dependsOn == kNoDependency) {
        return front.notBefore;
    }
    auto done_at = ss.completedAt.find(front.dependsOn);
    if (done_at == ss.completedAt.end()) {
        return kNeverCycle;
    }
    return std::max(done_at->second + front.delay, front.notBefore);
}

void
Gpu::promoteReadyKernels(StreamState &ss)
{
    while (!ss.queue.empty() && ss.active.size() < kMaxActiveKernels &&
           cycle_ >= promotionCycle(ss)) {
        const QueuedKernel &front = ss.queue.front();
        ActiveKernel ak;
        ak.id = front.id;
        ak.info = std::move(ss.queue.front().info);
        ak.refusedAt.assign(sms_.size(), 0);
        ss.queue.pop_front();
        ss.active.push_back(std::move(ak));
        launchCycles_[ss.active.back().id] = cycle_;
        if (telemetry_) {
            const ActiveKernel &launched = ss.active.back();
            telemetry_->emit(
                {cycle_, telemetry::EventKind::KernelLaunch, 0,
                 launched.info.stream, launched.id,
                 telemetry_->internName(launched.info.name)});
            if (launched.info.drawcall != 0) {
                auto &dc = drawcalls_[{launched.info.stream,
                                       launched.info.drawcall}];
                if (!dc.begun) {
                    dc.begun = true;
                    telemetry_->emit(
                        {cycle_, telemetry::EventKind::DrawcallBegin, 0,
                         launched.info.stream, launched.info.drawcall,
                         telemetry_->internName(
                             drawcallName(launched.info.name))});
                }
            }
        }
        for (auto *c : controllers_) {
            c->onKernelLaunch(*this, ss.active.back().info,
                              ss.active.back().id);
        }
    }
}

void
Gpu::issueCtas()
{
    // Track which SMs already accepted a CTA this cycle (launch throughput
    // of one CTA per SM per cycle).
    issueLaunchedScratch_.assign(sms_.size(), 0);
    std::vector<uint8_t> &launched = issueLaunchedScratch_;
    ctaLaunched_ = false;

    for (auto &[id, ss] : streams_) {
        promoteReadyKernels(ss);
        bool starved = false;
        for (ActiveKernel &ak : ss.active) {
            const uint32_t total = ak.info.numCtas();
            if (ak.nextCta >= total) {
                continue;   // all issued, waiting for commits
            }
            for (uint32_t sm_id : allowedSms(id)) {
                if (launched[sm_id]) {
                    continue;
                }
                if (ak.nextCta >= total) {
                    break;
                }
                Sm &sm = *sms_[sm_id];
                if (ak.refusedAt[sm_id] == sm.resourceEpoch()) {
                    continue;   // refused, and nothing freed since
                }
                if (!sm.canAccept(ak.info)) {
                    ak.refusedAt[sm_id] = sm.resourceEpoch();
                    continue;
                }
                sm.launchCta(ak.info, ak.id, ak.nextCta++, cycle_);
                launched[sm_id] = true;
                ctaLaunched_ = true;
                if (telemetry_) {
                    telemetry_->emit(
                        {cycle_, telemetry::EventKind::CtaDispatch,
                         sm_id, id, ak.id, ak.nextCta - 1});
                }
            }
            if (ak.nextCta < total) {
                starved = true;
            }
        }
        if (partition_.policy == PartitionPolicy::Exhaustive && starved) {
            // The default scheduler drains one kernel before the next
            // stream's kernel may claim resources.
            break;
        }
    }
}

void
Gpu::onCtaDone(uint32_t sm_id, StreamId stream, KernelId kernel)
{
    auto it = streams_.find(stream);
    panic_if(it == streams_.end(), "CTA done for unknown stream %u", stream);
    StreamState &ss = it->second;
    auto ak = std::find_if(ss.active.begin(), ss.active.end(),
                           [&](const ActiveKernel &k) {
                               return k.id == kernel;
                           });
    panic_if(ak == ss.active.end(),
             "CTA done for inactive kernel %u on stream %u", kernel, stream);
    if (telemetry_) {
        // b is the retirement ordinal: commit order, not launch index.
        telemetry_->emit({cycle_, telemetry::EventKind::CtaRetire, sm_id,
                          stream, kernel, ak->ctasDone});
    }
    if (++ak->ctasDone == ak->info.numCtas()) {
        ss.completedAt[kernel] = cycle_;
        KernelRecord rec;
        rec.id = kernel;
        rec.name = ak->info.name;
        rec.stream = stream;
        rec.ctas = ak->info.numCtas();
        rec.launchCycle = launchCycles_[kernel];
        rec.completeCycle = cycle_;
        kernelLog_.push_back(std::move(rec));
        if (telemetry_) {
            telemetry_->emit(
                {cycle_, telemetry::EventKind::KernelComplete, 0, stream,
                 kernel, telemetry_->internName(ak->info.name)});
        }
        if (ak->info.drawcall != 0) {
            auto dc = drawcalls_.find({stream, ak->info.drawcall});
            if (dc != drawcalls_.end() && --dc->second.kernelsLeft == 0) {
                if (telemetry_ && dc->second.begun) {
                    telemetry_->emit(
                        {cycle_, telemetry::EventKind::DrawcallEnd, 0,
                         stream, ak->info.drawcall,
                         telemetry_->internName(
                             drawcallName(ak->info.name))});
                }
                drawcalls_.erase(dc);
            }
        }
        ss.active.erase(ak);
        stats_.stream(stream).kernelsCompleted++;
        for (auto *c : controllers_) {
            c->onKernelComplete(*this, stream, kernel);
        }
        if (ss.queue.empty() && ss.active.empty()) {
            ss.finishCycle = cycle_;
        }
    }
}

void
Gpu::tick()
{
    ++cycle_;
    if (faultInjector_) {
        const uint32_t target = faultInjector_->config().freezeSm;
        if (target < sms_.size()) {
            sms_[target]->setIssueFrozen(
                faultInjector_->issueFrozen(target, cycle_));
        }
    }
    {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::CtaScheduler);
        issueCtas();
    }
    memoryPhase();
    {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::SmIssue);
        stepSms();
    }
    l2_->step(cycle_);
    {
        telemetry::SelfProfiler::Scope prof_scope(
            profiler_, telemetry::Component::Controllers);
        for (auto *c : controllers_) {
            c->onCycle(*this, cycle_);
        }
    }
    if (telemetry_ && sampleInterval_ != 0 && cycle_ >= nextSample_) {
        nextSample_ = cycle_ + sampleInterval_;
        sampleCounters();
    }
}

void
Gpu::memoryPhase()
{
    // Round-robin fabric arbitration (ROADMAP item 5): instead of each
    // SM flushing its whole retry queue and LDST unit before the next SM
    // runs — which starved high-index SMs for tens of thousands of
    // cycles under saturation — grants interleave one request per SM per
    // round. The rotation start is a pure function of the cycle number,
    // so idle fast-forward (which skips ticks entirely) cannot desync
    // the arbiter between a ticked and a jumped run.
    //
    // One scan builds both rotations: the retry rounds cannot add LDST
    // work, so an SM whose LDST unit is empty or parked sits out the
    // LDST rounds, as one whose retry queue is empty sits out the retry
    // rounds. The scan visits only memPhaseSms_, in the same rotation;
    // an SM outside it has no work, and a member found drained leaves.
    if (memPhaseSms_.empty()) {
        return;
    }
    retryPhaseScratch_.clear();
    ldstPhaseScratch_.clear();
    const size_t start = static_cast<size_t>(cycle_ % sms_.size());
    memPhaseSms_.forEachFrom(start, [this](size_t i) {
        Sm *sm = sms_[i].get();
        const bool retry = sm->fabricRetryDepth() > 0;
        const bool ldst = sm->hasLdstWork();
        if (!retry && !ldst) {
            memPhaseSms_.erase(i);
            return;
        }
        sm->beginMemPhase(cycle_);
        if (retry) {
            retryPhaseScratch_.push_back(sm);
        }
        if (ldst) {
            ldstPhaseScratch_.push_back(sm);
        }
    });
    if (retryPhaseScratch_.empty() && ldstPhaseScratch_.empty()) {
        return;
    }
    telemetry::SelfProfiler::Scope prof_scope(
        profiler_, telemetry::Component::L1Ldst);
    // Grant rounds, retry stage first across ALL SMs: parked requests
    // are the oldest traffic in the machine, so they claim the bank
    // slots freed since last cycle before any fresh LDST line can.
    // SMs that can no longer make progress this cycle (out of work, out
    // of budget, or blocked on backpressure) are compacted out in
    // place; rotation order is preserved across rounds.
    auto rounds = [this](std::vector<Sm *> &list,
                         bool (Sm::*grant)(Cycle)) {
        while (!list.empty()) {
            size_t kept = 0;
            for (Sm *sm : list) {
                if ((sm->*grant)(cycle_)) {
                    list[kept++] = sm;
                }
            }
            list.resize(kept);
        }
    };
    rounds(retryPhaseScratch_, &Sm::memPhaseGrantRetry);
    rounds(ldstPhaseScratch_, &Sm::memPhaseGrantLdst);
}

void
Gpu::stepSms()
{
    // The fabric-facing memory phase already ran under the arbiter in
    // memoryPhase(), so no step below touches the fabric.

    // Only due SMs step, and the due list is fixed before any SM steps:
    // nothing a step does reaches another SM, because CTA completions
    // wait for the merge. A CTA launched this cycle made its SM due, so
    // a CTA that launchCta retired at once reaches the merge as well.
    dueSms_.clear();
    for (auto &sm : sms_) {
        if (sm->due(cycle_)) {
            dueSms_.push_back(sm.get());
        }
    }

    // Each step (writebacks, issue, execute) touches only its own SM's
    // state: CTA completions land in the SM's list and stats in its own
    // blocks.
    for (Sm *sm : dueSms_) {
        sm->step(cycle_);
    }

    // Merge, SM-id order: every cross-SM effect of the step pass happens
    // here, after every step of the cycle. So a kernel completion, the
    // promotion it triggers or a controller's quota change never alters
    // the machine an SM later in the same pass steps against, and a
    // completion retired inside launchCta never lands while issueCtas()
    // walks the stream's active kernels. onCtaDone launches nothing, so
    // the list it walks cannot grow under it. An SM that was not due
    // committed nothing. Stats stay in the SMs' blocks until stats()
    // reads them.
    for (Sm *sm : dueSms_) {
        for (const auto &[stream, kernel] : sm->ctaDones()) {
            onCtaDone(sm->smId(), stream, kernel);
        }
        sm->clearCtaDones();
        noteMemPhaseWork(*sm);
    }
}

void
Gpu::sampleCounters()
{
    telemetry::CounterSeries &series = telemetry_->series();
    series.beginRow(cycle_);

    // Resolve the fixed column ids once per sink: interning by name costs
    // a string construction and a map lookup per column per sample, which
    // dominated this function's profile at tight sample intervals. The
    // intern order matches what re-interning every sample produced, so
    // the exported CSV is unchanged (occupancy columns resolve first,
    // just below).
    SampleColumns &cols = sampleColumns_;

    // Per-stream warp occupancy as a fraction of all warp slots — the same
    // arithmetic the Fig 13 occupancy sampler used, so ported benches emit
    // identical values. Streams created after the first sample intern
    // their column on their first sample, as before.
    const double slots =
        static_cast<double>(numSms()) * cfg_.sm.maxWarps;
    for (const auto &[id, ss] : streams_) {
        uint32_t warps = 0;
        for (const auto &sm : sms_) {
            warps += sm->activeWarpsOf(id);
        }
        auto it = cols.occ.find(id);
        if (it == cols.occ.end()) {
            it = cols.occ.emplace(id, series.column("occ." + ss.name))
                     .first;
        }
        series.set(it->second, warps / slots);
    }

    if (!cols.resolved) {
        cols.resolved = true;
        cols.smActiveWarps = series.column("sm.activeWarps");
        cols.smReady = series.column("sm.ready");
        cols.smAtBarrier = series.column("sm.atBarrier");
        cols.smWaitScoreboard = series.column("sm.waitScoreboard");
        cols.smWaitExecUnit = series.column("sm.waitExecUnit");
        cols.smWaitSmem = series.column("sm.waitSmem");
        cols.smWaitLdst = series.column("sm.waitLdst");
        cols.l1Mshr = series.column("l1.mshr");
        cols.l2Accesses = series.column("l2.accesses");
        cols.l2Hits = series.column("l2.hits");
        cols.l2HitRate = series.column("l2.hitRate");
        cols.l2Mshr = series.column("l2.mshr");
        cols.l2CompTexture = series.column("l2.comp.texture");
        cols.l2CompPipeline = series.column("l2.comp.pipeline");
        cols.l2CompCompute = series.column("l2.comp.compute");
        cols.l2Valid = series.column("l2.valid");
    }

    // Machine-wide warp-state breakdown from the SM integrity probes.
    uint64_t active = 0, ready = 0, barrier = 0, scoreboard = 0, exec = 0,
             smem = 0, ldst = 0, l1_mshr = 0;
    for (const auto &sm : sms_) {
        const Sm::IntegrityProbe p = sm->probe(cycle_);
        active += p.activeWarps;
        ready += p.ready;
        barrier += p.atBarrier;
        scoreboard += p.waitScoreboard;
        exec += p.waitExecUnit;
        smem += p.waitSmem;
        ldst += p.waitLdst;
        l1_mshr += p.l1MshrEntries;
    }
    series.set(cols.smActiveWarps, static_cast<double>(active));
    series.set(cols.smReady, static_cast<double>(ready));
    series.set(cols.smAtBarrier, static_cast<double>(barrier));
    series.set(cols.smWaitScoreboard, static_cast<double>(scoreboard));
    series.set(cols.smWaitExecUnit, static_cast<double>(exec));
    series.set(cols.smWaitSmem, static_cast<double>(smem));
    series.set(cols.smWaitLdst, static_cast<double>(ldst));
    series.set(cols.l1Mshr, static_cast<double>(l1_mshr));

    // L2 hit/miss and MSHR depth.
    series.set(cols.l2Accesses, static_cast<double>(l2_->accesses()));
    series.set(cols.l2Hits, static_cast<double>(l2_->hits()));
    series.set(cols.l2HitRate, l2_->hitRate());
    const L2Subsystem::InFlight inflight = l2_->inFlight();
    series.set(cols.l2Mshr, static_cast<double>(inflight.mshrEntries));

    // L2 composition shares (a walk over every line).
    const CacheComposition comp = l2_->composition();
    series.set(cols.l2CompTexture, comp.fraction(DataClass::Texture));
    series.set(cols.l2CompPipeline, comp.fraction(DataClass::Pipeline));
    series.set(cols.l2CompCompute, comp.fraction(DataClass::Compute));
    series.set(cols.l2Valid, comp.validFraction());
}

Cycle
Gpu::nextWakeCycle() const
{
    // Every term is clamped to the next cycle, the earliest possible
    // answer, so the scan stops at the first term that gives it. The SMs
    // go first: on a busy tick one of them usually does.
    const Cycle next = cycle_ + 1;
    if (!controllers_.empty()) {
        return next;   // onCycle runs every cycle
    }
    // A launch tick may leave CTAs the one-per-SM-per-cycle limit held
    // back, and the launched warps need not issue this tick. After a tick
    // with no launch, only a CTA commit (an issue, so an SM term) can let
    // another CTA in.
    if (ctaLaunched_) {
        return next;
    }
    Cycle wake = kNeverCycle;
    auto soonest = [&](Cycle at) {
        wake = std::min(wake, std::max(at, next));
        return wake == next;
    };
    for (const auto &sm : sms_) {
        if (soonest(sm->nextWorkCycle(cycle_))) {
            return next;
        }
    }
    if (soonest(l2_->nextEventCycle(cycle_))) {
        return next;
    }
    // The counter sampler's next row.
    if (telemetry_ && sampleInterval_ != 0 && soonest(nextSample_)) {
        return next;
    }
    // Kernel promotion timers. Fronts blocked on an incomplete
    // dependency or the active-kernel limit wake via a kernel
    // completion, which an SM's work precedes (covered above).
    for (const auto &[id, ss] : streams_) {
        if (!ss.queue.empty() && ss.active.size() < kMaxActiveKernels &&
            soonest(promotionCycle(ss))) {
            return next;
        }
    }
    return wake;
}

void
Gpu::fastForwardTo(Cycle target)
{
    // No skipped cycle may have had work by any wake term (see
    // Machine::run): the only per-cycle state such a tick would have
    // advanced is the per-stream active-cycle counters, which each SM
    // credits lazily for the cycles it slept through, skipped ones
    // included.
    ffCyclesSkipped_ += target - cycle_;
    cycle_ = target;
    ++ffJumps_;
}

void
Gpu::settleCycles()
{
    for (auto &sm : sms_) {
        sm->settleCycles(cycle_);
    }
}

bool
Gpu::done() const
{
    for (const auto &[id, ss] : streams_) {
        if (!ss.active.empty() || !ss.queue.empty()) {
            return false;
        }
    }
    for (const auto &sm : sms_) {
        if (!sm->idle()) {
            return false;
        }
    }
    return l2_->idle();
}

uint64_t
Gpu::progressSignature() const
{
    // Any of these moving means the machine is getting somewhere: warps
    // issuing, CTAs launching, kernels finishing, or memory responses
    // arriving. Stall counters and queue churn deliberately don't count.
    uint64_t sig = l2_->responsesDelivered();
    for (const auto &[id, st] : stats().allStreams()) {
        sig += st.instructions + st.ctasLaunched + st.kernelsCompleted;
    }
    return sig;
}

bool
Gpu::progressImminent() const
{
    // A machine-wide idle spell is legal while a stream with nothing in
    // flight waits only on its front kernel's arrival cycle or
    // fixed-function delay: promotion is scheduled, so this is not a
    // hang no matter how long the wait. A dependent front whose gate has
    // already opened is not exempt: under Exhaustive a starved earlier
    // stream keeps it from promoting.
    return std::any_of(
        streams_.begin(), streams_.end(), [this](const auto &entry) {
            const StreamState &ss = entry.second;
            if (!ss.active.empty() || ss.queue.empty()) {
                return false;
            }
            const Cycle p = promotionCycle(ss);
            return ss.queue.front().dependsOn == kNoDependency ||
                (p != kNeverCycle && cycle_ < p);
        });
}

std::vector<const Sm *>
Gpu::constSms() const
{
    std::vector<const Sm *> sms;
    sms.reserve(sms_.size());
    for (const auto &sm : sms_) {
        sms.push_back(sm.get());
    }
    return sms;
}

void
Gpu::checkMemPhaseSet(std::vector<integrity::InvariantViolation> &out) const
{
    for (const auto &sm : sms_) {
        if (sm->hasMemPhaseWork() && !memPhaseSms_.contains(sm->smId())) {
            out.push_back(
                {"mem-phase-set",
                 logging_detail::formatMessage(
                     "SM %u has memory-phase work (retry depth %zu) but is "
                     "missing from the memory-phase set, so the memory "
                     "phase would skip it", sm->smId(),
                     sm->fabricRetryDepth()),
                 cycle_});
        }
    }
}

void
Gpu::checkStreamLiveness(
    std::vector<integrity::InvariantViolation> &out) const
{
    // A front kernel whose dependency is neither completed nor active on
    // its stream waits on an id that can never complete (streams promote
    // in order, so a valid dependency is always ahead of its dependent).
    for (const auto &[id, ss] : streams_) {
        if (ss.queue.empty()) {
            continue;
        }
        const QueuedKernel &front = ss.queue.front();
        if (front.dependsOn == kNoDependency ||
            ss.completedAt.count(front.dependsOn)) {
            continue;
        }
        const bool pending =
            std::any_of(ss.active.begin(), ss.active.end(),
                        [&](const ActiveKernel &ak) {
                            return ak.id == front.dependsOn;
                        });
        if (pending) {
            continue;
        }
        out.push_back(
            {"stream-liveness",
             logging_detail::formatMessage(
                 "stream %u (%s): kernel %u (%s) waits on dependency %u, "
                 "which is neither completed nor running on this stream "
                 "and so can never be satisfied", id, ss.name.c_str(),
                 front.id, front.info.name.c_str(), front.dependsOn),
             cycle_});
    }
}

void
Gpu::describe(integrity::HangReport &report) const
{
    for (const auto &sm : sms_) {
        report.sms.push_back(integrity::smRow(*sm, cycle_));
        report.sms.back().device = deviceId_;
    }
    for (const auto &[id, ss] : streams_) {
        integrity::HangReport::StreamRow row;
        row.id = id;
        row.name = ss.name;
        row.queuedKernels = ss.queue.size();
        row.activeKernels = ss.active.size();
        if (!ss.queue.empty()) {
            const QueuedKernel &front = ss.queue.front();
            row.frontKernel = front.info.name;
            const Cycle promotion = promotionCycle(ss);
            if (promotion == kNeverCycle) {
                row.blockingDep = front.dependsOn;
                row.blockReason = logging_detail::formatMessage(
                    "waiting on kernel %u", front.dependsOn);
            } else if (cycle_ < promotion) {
                row.blockReason = logging_detail::formatMessage(
                    "%s at cycle %" PRIu64,
                    promotion == front.notBefore ? "arrival"
                                                 : "fixed-function delay",
                    promotion);
            } else if (ss.active.size() >= kMaxActiveKernels) {
                row.blockReason = "active-kernel limit";
            } else {
                row.blockReason = "SM resources";
            }
        }
        report.streams.push_back(std::move(row));
    }
    report.mem.push_back(integrity::memRow(*l2_, cycle_));
    report.mem.back().device = deviceId_;
}

Gpu::RunResult
Gpu::run(Cycle max_cycles, const integrity::RunOptions &opts)
{
    fatal_if(remote_ != nullptr,
             "GPU %u belongs to a MultiGpu: run the machine, not one "
             "device", deviceId_);
    return Machine({this}).run(max_cycles, opts);
}

uint32_t
Gpu::busyStreams() const
{
    uint32_t count = 0;
    for (const auto &[id, ss] : streams_) {
        if (!ss.active.empty() || !ss.queue.empty()) {
            ++count;
        }
    }
    return count;
}

uint64_t
Gpu::pendingKernels() const
{
    uint64_t count = 0;
    for (const auto &[id, ss] : streams_) {
        count += ss.queue.size() + ss.active.size();
    }
    return count;
}

uint64_t
Gpu::pendingKernels(StreamId stream) const
{
    auto it = streams_.find(stream);
    return it == streams_.end()
        ? 0
        : it->second.queue.size() + it->second.active.size();
}

Cycle
Gpu::streamFinishCycle(StreamId stream) const
{
    auto it = streams_.find(stream);
    fatal_if(it == streams_.end(), "unknown stream %u", stream);
    return it->second.finishCycle;
}

bool
Gpu::submitToL2(MemRequest req, Cycle now)
{
    req.srcDevice = deviceId_;
    if (remote_ != nullptr && remote_->ownerOf(req.line) != deviceId_) {
        if (!remote_->submitRemote(req, now)) {
            return false;
        }
        stats_.stream(req.stream).remoteAccesses++;
        return true;
    }
    return l2_->submit(std::move(req), now);
}

void
Gpu::setStreamIdBase(StreamId base)
{
    fatal_if(!streams_.empty(),
             "setStreamIdBase after streams were created");
    nextStream_ = base;
}

bool
Gpu::acceptRemoteRequest(MemRequest req, Cycle now)
{
    return l2_->submit(std::move(req), now);
}

void
Gpu::deliverRemoteResponse(const MemRequest &resp, Cycle now)
{
    panic_if(resp.srcDevice != deviceId_,
             "remote response routed to device %u for device %u",
             deviceId_, resp.srcDevice);
    panic_if(resp.smId >= sms_.size(), "remote response for unknown SM %u",
             resp.smId);
    stats_.stream(resp.stream).remoteResponses++;
    sms_[resp.smId]->memResponse(resp, now);
    noteMemPhaseWork(*sms_[resp.smId]);
}

} // namespace crisp
