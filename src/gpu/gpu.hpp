#ifndef CRISP_GPU_GPU_HPP
#define CRISP_GPU_GPU_HPP

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/work_set.hpp"
#include "core/sm.hpp"
#include "gpu/gpu_config.hpp"
#include "integrity/report.hpp"
#include "mem/l2_subsystem.hpp"

namespace crisp
{

namespace engine
{

/**
 * Settings that have no effect: SMs always step on the calling thread.
 * The benchmark harness (perfbench/harness.cpp) still sets these fields,
 * so they stay until a change to the benchmark deletes them together
 * with Gpu::setEngine and MultiGpu::setEngine.
 */
struct EngineConfig
{
    uint32_t threads = 1;
    bool allowOversubscribe = false;
    bool stagedFabric = false;
};

} // namespace engine

namespace integrity
{
class FaultInjector;
}

namespace telemetry
{
class TelemetrySink;
class SelfProfiler;
}

class Gpu;

/**
 * The inter-GPU fabric of a multi-GPU machine, as its devices and the
 * machine's run loop (crisp::Machine) see it.
 *
 * A Gpu with a port attached asks it who owns each submitted line; lines
 * owned by another device are handed to the port instead of the local
 * L2, and fills that arrive at a peer's L2 are handed back through it.
 * The run loop steps it once per cycle ahead of the devices and folds it
 * into fast-forward, the watchdog and the audit. Implemented by
 * mgpu::InterGpuFabric; single-GPU builds never attach one, so the
 * single-device paths are untouched.
 */
class RemoteMemPort
{
  public:
    virtual ~RemoteMemPort() = default;

    /** Device that currently owns @p line (page migration may move it). */
    virtual uint32_t ownerOf(Addr line) const = 0;

    /**
     * Route a request from its stamped srcDevice toward ownerOf(line).
     * @return false when the link's bounded request queue is full — the
     * SM parks the request in its egress retry queue exactly as it does
     * for a refused local L2 submit.
     */
    virtual bool submitRemote(MemRequest req, Cycle now) = 0;

    /**
     * Hand back a fill that completed on @p from_device's L2 on behalf
     * of a peer (resp.srcDevice != from_device). Responses are never
     * refused; the fabric queues them and charges response-link
     * latency/bandwidth on the from_device → srcDevice link.
     */
    virtual void submitRemoteResponse(MemRequest resp, uint32_t from_device,
                                      Cycle now) = 0;

    // --- Run-loop view -----------------------------------------------------

    /** Advance one cycle, before the devices' ticks of the same cycle. */
    virtual void step(Cycle now) = 0;
    /** True when no packet is queued, on a wire, or parked anywhere. */
    virtual bool idle() const = 0;
    /** Monotone count of packet moves: the fabric's term in the
     *  watchdog's progress signature. */
    virtual uint64_t workCount() const = 0;
    /** Earliest cycle (> @p now) at which step() can move a packet;
     *  kNeverCycle when idle. Idle fast-forward jumps on it after every
     *  tick, so early answers are safe and late ones not. */
    virtual Cycle nextEventCycle(Cycle now) const = 0;
    /** Reads on the fabric, requests and responses (mem-conservation). */
    virtual uint64_t readsInFlight() const = 0;
    /** True while SM @p sm of @p device has a read of @p line on the
     *  fabric or in a peer's L2 (the MSHR leak scan). */
    virtual bool lineInFlightFor(uint32_t device, uint32_t sm,
                                 Addr line) const = 0;
    /** Add every in-flight request to @p out per stream (the fabric's
     *  term in the L1<->L2 conservation audit). */
    virtual void
    countInFlightByStream(SmallFlatMap<StreamId, uint64_t> &out) const = 0;
    /** Append "counter-fabric-conservation" violations against the union
     *  @p merged of every device's stats. */
    virtual void
    auditCounters(const StatsRegistry &merged, Cycle now,
                  std::vector<integrity::InvariantViolation> &out) const = 0;
};

/** GPU spatial-partitioning methods modeled by CRISP (§III-A, Fig 4). */
enum class PartitionPolicy
{
    /**
     * Accel-Sim default: CTAs of one kernel launch exhaustively before the
     * next kernel is considered; big kernels leave no room for concurrency.
     */
    Exhaustive,
    /** MPS: SMs split between streams; L2 and memory fully shared. */
    Mps,
    /** MiG: SMs split and L2 banks partitioned per stream. */
    Mig,
    /**
     * Fine-grained intra-SM partitioning (Vulkan async-compute style):
     * every SM runs both streams under per-stream resource quotas.
     */
    FineGrained,
};

/** Partition policy plus per-stream resource shares (default: even). */
struct PartitionConfig
{
    PartitionPolicy policy = PartitionPolicy::Exhaustive;
    /** Resource share per stream; missing streams share what is left. */
    std::map<StreamId, double> share;
    /**
     * Under FineGrained sharing, warps of this stream issue ahead of other
     * streams' warps — the async-compute arrangement where the graphics
     * queue keeps priority and compute fills idle issue slots. Ignored for
     * the inter-SM policies.
     */
    StreamId priorityStream = kInvalidStream;
};

/**
 * Observer/controller attached to the GPU's cycle loop.
 *
 * The dynamic partitioning mechanisms (Warped-Slicer, TAP) are implemented
 * as controllers: they watch launches, completions and cycles, and steer
 * quotas / set windows through the Gpu's public hooks.
 */
class GpuController
{
  public:
    virtual ~GpuController() = default;
    virtual void onKernelLaunch(Gpu &gpu, const KernelInfo &info,
                                KernelId id)
    {
        (void)gpu;
        (void)info;
        (void)id;
    }
    /** Runs in the SM step pass's merge, in the cycle the kernel's last
     *  CTA commits. */
    virtual void onKernelComplete(Gpu &gpu, StreamId stream, KernelId id)
    {
        (void)gpu;
        (void)stream;
        (void)id;
    }
    /** Runs every cycle: an attached controller disables idle
     *  fast-forward. */
    virtual void onCycle(Gpu &gpu, Cycle now)
    {
        (void)gpu;
        (void)now;
    }
};

/**
 * Top-level GPU model: SMs + shared L2/DRAM + the CTA scheduler with the
 * paper's partitioning policies, driven by in-order streams of trace
 * kernels. Statistics are kept **per stream** (§III-A).
 */
class Gpu : public MemFabricPort
{
  public:
    explicit Gpu(const GpuConfig &cfg);
    ~Gpu();

    /** Create an in-order command stream. */
    StreamId createStream(const std::string &name);

    /** Sentinel for enqueueKernelAfter: no dependency. */
    static constexpr KernelId kNoDependency = 0;

    /**
     * Append a kernel to a stream (kernel.stream is overwritten). The
     * kernel starts only after the previously enqueued kernel on this
     * stream completes (classic in-order stream semantics).
     */
    KernelId enqueueKernel(StreamId stream, KernelInfo info);

    /**
     * Append a kernel that may start as soon as @p depends_on (a kernel
     * previously enqueued on the same stream) has completed —
     * kNoDependency starts immediately. This models the rendering
     * pipeline's drawcall overlap: a drawcall's fragment kernel waits only
     * for its own vertex kernel, not for earlier drawcalls to drain
     * (Immediate Tiled Rendering keeps multiple draws in flight).
     */
    KernelId enqueueKernelAfter(StreamId stream, KernelInfo info,
                                KernelId depends_on);

    /**
     * Like enqueueKernelAfter, with a fixed-function stage delay: the
     * kernel becomes eligible @p delay cycles after its dependency
     * completes. Models the paper's §IV suggestion that unmodeled
     * fixed-function stages (primitive assembly, binning) behave as FIFO
     * queues with fixed latency between the shader stages.
     */
    KernelId enqueueKernelAfter(StreamId stream, KernelInfo info,
                                KernelId depends_on, Cycle delay);

    /**
     * Append a kernel that becomes eligible no earlier than the absolute
     * cycle @p not_before, independent of other kernels' completion.
     * Models an arrival schedule: work that reaches the GPU at a known
     * wall-clock point (a burst of inference requests landing mid-frame)
     * rather than as a dependency of earlier work. Stream order still
     * holds — a kernel queued behind it cannot overtake it — so arrival
     * times on one stream should be enqueued in ascending order.
     */
    KernelId enqueueKernelAt(StreamId stream, KernelInfo info,
                             Cycle not_before);

    /**
     * Select the partitioning method; applies SM/bank masks and quotas.
     * Shares must be non-negative and sum to at most 1.0, and every named
     * stream (including priorityStream) must exist.
     */
    void setPartition(const PartitionConfig &partition);

    /** Attach a dynamic controller (not owned). */
    void addController(GpuController *controller);

    /**
     * Attach a fault injector (not owned; nullptr detaches). Wires the
     * memory-system fault hook into the L2 and lets the injector freeze
     * SM issue stages and corrupt enqueued dependency ids.
     */
    void setFaultInjector(integrity::FaultInjector *injector);

    /**
     * Attach a telemetry sink (not owned; nullptr detaches). Wires the
     * sink into the L2 and every SM, registers the existing streams, and
     * arms the counter sampler per the sink's config. Emission sites are
     * gated on the pointer, so a detached sink costs one branch each.
     */
    void setTelemetry(telemetry::TelemetrySink *sink);

    /** The attached telemetry sink, or nullptr (controllers emit via this). */
    telemetry::TelemetrySink *telemetry() const { return telemetry_; }

    /** Does nothing; see engine::EngineConfig. */
    void setEngine(const engine::EngineConfig &) {}

    /** Idle fast-forward bookkeeping: jumps taken and cycles skipped. */
    uint64_t fastForwardJumps() const { return ffJumps_; }
    uint64_t fastForwardCycles() const { return ffCyclesSkipped_; }

    /**
     * Advance one core cycle, stepping only the SMs that are due (see
     * Sm::due). Sleeping SMs credit their per-stream active cycles
     * lazily: run() settles them when it returns, and a drained machine
     * owes none, so a tick() loop run to done() reads exact counters.
     */
    void tick();

    /** Run until everything drains or @p max_cycles elapse. */
    struct RunResult
    {
        Cycle cycles = 0;
        bool completed = false;
        /** Set when RunOptions::cancel stopped the run between ticks. */
        bool cancelled = false;
        /** Set when the integrity layer stopped the run. */
        std::optional<integrity::HangReport> hang;
    };
    /**
     * This GPU as a one-device Machine (see gpu/machine.hpp for the run
     * loop: idle fast-forward, watchdog, invariant checkers, counter
     * audit and cancellation).
     */
    RunResult run(Cycle max_cycles = ~0ull,
                  const integrity::RunOptions &opts = {});

    bool done() const;
    Cycle now() const { return cycle_; }

    // --- Introspection and controller hooks -------------------------------

    /**
     * The per-stream stats, exact on every read: each SM's own blocks
     * are folded in first (Sm::foldStats). The fold only moves counts,
     * so the const overload folds too.
     */
    StatsRegistry &stats();
    const StatsRegistry &stats() const;
    L2Subsystem &l2() { return *l2_; }
    const L2Subsystem &l2() const { return *l2_; }
    /** Access one SM; fatal on an out-of-range index. */
    Sm &sm(uint32_t index);
    uint32_t numSms() const { return static_cast<uint32_t>(sms_.size()); }
    /** Read-only view over all SMs, in index order (audit/integrity). */
    std::vector<const Sm *> constSms() const;
    const GpuConfig &config() const { return cfg_; }

    /** Uniform intra-SM quota for @p stream as a fraction of SM resources. */
    void setUniformQuota(StreamId stream, double share);

    /** Per-SM quota override (Warped-Slicer's sampling phase). */
    void setSmQuota(uint32_t sm_index, StreamId stream, const SmQuota &quota);

    /** Quota helper: footprint share of one SM's resources. */
    SmQuota quotaFromShare(double share) const;

    /** Streams that still have queued or running kernels. */
    uint32_t busyStreams() const;

    /** Number of kernels still queued (not yet fully committed). */
    uint64_t pendingKernels() const;

    /** Kernels of @p stream still queued or in flight (0 for unknown). */
    uint64_t pendingKernels(StreamId stream) const;

    /** First cycle at which every kernel of @p stream had committed. */
    Cycle streamFinishCycle(StreamId stream) const;

    /** One completed kernel's execution record. */
    struct KernelRecord
    {
        KernelId id = 0;
        std::string name;
        StreamId stream = 0;
        uint32_t ctas = 0;
        Cycle launchCycle = 0;
        Cycle completeCycle = 0;
    };

    /** Execution log of every completed kernel, in completion order. */
    const std::vector<KernelRecord> &kernelLog() const
    {
        return kernelLog_;
    }

    // MemFabricPort
    bool submitToL2(MemRequest req, Cycle now) override;

    // --- Multi-GPU lift ----------------------------------------------------

    /** Device id within a MultiGpu machine (0 for standalone). */
    uint32_t deviceId() const { return deviceId_; }
    void setDeviceId(uint32_t id) { deviceId_ = id; }

    /** Attach the inter-GPU fabric (not owned; nullptr detaches). */
    void setRemotePort(RemoteMemPort *port) { remote_ = port; }

    /**
     * Base for stream ids created by this device. MultiGpu gives every
     * device a disjoint range so per-stream stats keyed by id stay
     * unambiguous machine-wide. Must be set before any createStream.
     */
    void setStreamIdBase(StreamId base);

    /**
     * Fabric delivery of a remote request into this device's local L2
     * (routing already decided; never re-routed). @return false when the
     * destination bank queue refuses — the fabric keeps it parked.
     */
    bool acceptRemoteRequest(MemRequest req, Cycle now);

    /**
     * Fabric delivery of a remote fill back to the SM that issued it.
     * Counts the stream's remoteResponses on this (the issuing) device.
     */
    void deliverRemoteResponse(const MemRequest &resp, Cycle now);

  private:
    friend class Machine;

    struct QueuedKernel
    {
        KernelId id = 0;
        KernelInfo info;
        KernelId dependsOn = kNoDependency;
        Cycle delay = 0;          ///< Fixed-function latency after dep.
        Cycle notBefore = 0;      ///< Earliest eligibility (arrival time).
    };

    struct ActiveKernel
    {
        KernelId id = 0;
        KernelInfo info;
        uint32_t nextCta = 0;
        uint32_t ctasDone = 0;
        /** Per SM, its resourceEpoch() when it last refused a CTA of this
         *  kernel (0 = never): issueCtas() does not ask again until the
         *  epoch moves. */
        std::vector<uint64_t> refusedAt;
    };

    struct StreamState
    {
        std::string name;
        std::deque<QueuedKernel> queue;
        std::vector<ActiveKernel> active;
        /** Completion cycle of every completed kernel. */
        std::map<KernelId, Cycle> completedAt;
        std::set<KernelId> everEnqueued;
        KernelId lastEnqueued = kNoDependency;
        Cycle finishCycle = 0;
    };

    /** Kernels of one stream allowed in flight simultaneously. */
    static constexpr size_t kMaxActiveKernels = 6;

    KernelId enqueueInternal(StreamId stream, KernelInfo info,
                             KernelId depends_on, Cycle delay,
                             Cycle not_before);
    void applyPartition();
    void issueCtas();
    void onCtaDone(uint32_t sm_id, StreamId stream, KernelId kernel);
    /**
     * First cycle at which @p ss's front kernel may be promoted, ignoring
     * the active-kernel limit; kNeverCycle while its dependency is
     * incomplete. The queue must not be empty.
     */
    Cycle promotionCycle(const StreamState &ss) const;
    void promoteReadyKernels(StreamState &ss);
    const std::vector<uint32_t> &allowedSms(StreamId stream);
    void sampleCounters();
    /**
     * Round-robin fabric arbitration: the per-cycle memory phase.
     * Grants rotate across SMs from a start derived purely from the
     * cycle number (fast-forward safe), one request per SM per grant
     * round, until no SM can make progress. Only members of
     * memPhaseSms_ are visited. Runs before any SM steps.
     */
    void memoryPhase();
    /** Add @p sm to memPhaseSms_ if it has memory-phase work. Called
     *  after each place that can give an SM such work: its step and a
     *  memResponse (which unparks its LDST head). */
    void noteMemPhaseWork(const Sm &sm)
    {
        if (sm.hasMemPhaseWork()) {
            memPhaseSms_.insert(sm.smId());
        }
    }
    /**
     * The SM step pass: step every due SM, then merge in SM-id order:
     * deliver each SM's committed CTAs to onCtaDone and note its
     * memory-phase work.
     */
    void stepSms();

    // Idle fast-forward internals (used by Machine::run).
    /** Earliest cycle (> now) at which a tick can do anything; exact or
     *  early in any state after a tick. */
    Cycle nextWakeCycle() const;
    void fastForwardTo(Cycle target);
    /** Credit every SM's sleeping cycles through now (run return). */
    void settleCycles();

    // Integrity-layer internals (watchdog state lives in Machine::run).
    uint64_t progressSignature() const;
    bool progressImminent() const;
    void checkStreamLiveness(
        std::vector<integrity::InvariantViolation> &out) const;
    /** Append a "mem-phase-set" violation for each SM with memory-phase
     *  work that is missing from memPhaseSms_ (a lost wakeup). */
    void checkMemPhaseSet(
        std::vector<integrity::InvariantViolation> &out) const;
    /** Append this device's SM, stream and memory rows to @p report. */
    void describe(integrity::HangReport &report) const;

    GpuConfig cfg_;
    /** Mutable: the const stats() folds the SMs' blocks into it. */
    mutable StatsRegistry stats_;
    std::unique_ptr<L2Subsystem> l2_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::map<StreamId, StreamState> streams_;
    std::map<StreamId, std::vector<uint32_t>> smAssignment_;
    std::vector<uint32_t> allSms_;
    /** Per-tick "SM accepted a CTA this cycle" scratch for issueCtas():
     *  reused so the per-cycle scheduler pass does not allocate. */
    std::vector<uint8_t> issueLaunchedScratch_;
    /** issueCtas() launched a CTA this tick (pins nextWakeCycle). */
    bool ctaLaunched_ = false;
    /** Arbitration rotations for memoryPhase()'s retry and LDST rounds,
     *  reused per tick. */
    std::vector<Sm *> retryPhaseScratch_;
    std::vector<Sm *> ldstPhaseScratch_;
    /** SMs that may have memory-phase work (Sm::hasMemPhaseWork): a
     *  superset, joined via noteMemPhaseWork and left when memoryPhase()
     *  finds a member drained. */
    WorkSet memPhaseSms_;
    /** SMs due this cycle, in SM-id order (stepSms scratch). */
    std::vector<Sm *> dueSms_;
    std::vector<GpuController *> controllers_;
    integrity::FaultInjector *faultInjector_ = nullptr;
    PartitionConfig partition_;
    std::vector<KernelRecord> kernelLog_;
    std::map<KernelId, Cycle> launchCycles_;
    Cycle cycle_ = 0;
    StreamId nextStream_ = 0;
    KernelId nextKernel_ = 1;
    uint32_t deviceId_ = 0;
    RemoteMemPort *remote_ = nullptr;

    // --- Idle fast-forward -------------------------------------------------

    uint64_t ffJumps_ = 0;
    uint64_t ffCyclesSkipped_ = 0;

    // --- Telemetry ---------------------------------------------------------

    /** Kernel accounting for one drawcall's begin/end span. */
    struct DrawcallTrack
    {
        uint32_t kernelsLeft = 0;   ///< Enqueued kernels not yet complete.
        bool begun = false;         ///< Begin event already emitted.
    };

    /**
     * Column indices of the counter sampler, resolved once per sink
     * instead of re-interning every name (and re-building "occ." + name
     * strings) on every sample. Interning happens lazily on the first
     * sample so the column order of the emitted CSV is unchanged:
     * occupancy columns first (stream-id order), then the fixed machine
     * columns, then occupancy columns of streams created later.
     */
    struct SampleColumns
    {
        bool resolved = false;
        std::map<StreamId, uint32_t> occ;
        uint32_t smActiveWarps = 0, smReady = 0, smAtBarrier = 0;
        uint32_t smWaitScoreboard = 0, smWaitExecUnit = 0;
        uint32_t smWaitSmem = 0, smWaitLdst = 0, l1Mshr = 0;
        uint32_t l2Accesses = 0, l2Hits = 0, l2HitRate = 0, l2Mshr = 0;
        uint32_t l2CompTexture = 0, l2CompPipeline = 0;
        uint32_t l2CompCompute = 0, l2Valid = 0;
    };

    telemetry::TelemetrySink *telemetry_ = nullptr;
    telemetry::SelfProfiler *profiler_ = nullptr;
    SampleColumns sampleColumns_;
    std::map<std::pair<StreamId, uint32_t>, DrawcallTrack> drawcalls_;
    Cycle sampleInterval_ = 0;
    Cycle nextSample_ = 0;
};

} // namespace crisp

#endif // CRISP_GPU_GPU_HPP
