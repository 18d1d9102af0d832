#ifndef CRISP_MGPU_FABRIC_HPP
#define CRISP_MGPU_FABRIC_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "gpu/gpu.hpp"
#include "mem/icnt.hpp"
#include "mem/mem_request.hpp"

namespace crisp
{
namespace mgpu
{

/** Knobs of the inter-GPU fabric (MGSim-style peer-to-peer links). */
struct FabricConfig
{
    /** One-way link traversal latency in core cycles (NVLink-ish). */
    Cycle linkLatency = 256;

    /** Serialization bandwidth of one directed link, bytes per cycle. */
    double linkBytesPerCycle = 64.0;

    /**
     * Bounded request queue per directed link. A full queue refuses the
     * submit, so the SM parks the request in its egress retry queue and
     * backpressure propagates exactly as it does for a full L2 bank.
     */
    uint32_t requestQueueCapacity = 32;

    /**
     * Opt-in page migration: after a device touches a remote page this
     * many times, the page migrates to the toucher (its lines become
     * local) and the copy is charged as pageBytes of response-link
     * traffic. 0 disables migration (pure remote access).
     */
    uint32_t migrateAfter = 0;

    /** Migration granule in bytes. */
    uint64_t pageBytes = 4096;

    /** Header bytes of a request/response packet on the wire. */
    uint32_t headerBytes = 32;
};

/**
 * Point-to-point inter-GPU interconnect: a full mesh of directed links,
 * each with a fixed latency, a bytes-per-cycle serialization limit and a
 * bounded request queue. Requests whose line lives in another device's
 * heap window traverse src→owner, are delivered into the owner's L2, and
 * the fill returns over the owner→src response link. Landing-side
 * arbitration is round-robin across source devices with a rotation start
 * derived purely from the cycle number — the same fairness scheme as the
 * intra-GPU memory phase (Gpu::memoryPhase), one level up.
 *
 * All state is stepped by the machine's run loop, before the device
 * ticks of each cycle.
 */
class InterGpuFabric : public RemoteMemPort
{
  public:
    /**
     * @param window_bytes size of each device's static heap window:
     *        device d owns [d * window_bytes, (d+1) * window_bytes)
     *        (the last device owns everything above its base).
     */
    InterGpuFabric(const FabricConfig &cfg, uint32_t num_devices,
                   Addr window_bytes);

    /** Wire up device @p id (not owned). All devices must be attached. */
    void attachDevice(uint32_t id, Gpu *gpu);

    // RemoteMemPort
    uint32_t ownerOf(Addr line) const override;
    bool submitRemote(MemRequest req, Cycle now) override;
    void submitRemoteResponse(MemRequest resp, uint32_t from_device,
                              Cycle now) override;

    /** Owner of @p line ignoring migration overrides. */
    uint32_t staticOwnerOf(Addr line) const;

    /**
     * Advance one cycle: land due request packets into destination L2s
     * (round-robin across source links), deliver due response packets to
     * the requesting SMs, then pump admitted packets onto the wires.
     * Must run before the device ticks of the same cycle.
     */
    void step(Cycle now) override;
    bool idle() const override;
    uint64_t workCount() const override { return workCount_; }
    Cycle nextEventCycle(Cycle now) const override;
    uint64_t readsInFlight() const override;
    bool lineInFlightFor(uint32_t device, uint32_t sm,
                         Addr line) const override;
    void countInFlightByStream(
        SmallFlatMap<StreamId, uint64_t> &out) const override;
    /**
     * Every accepted packet is delivered or still in flight, migration
     * bytes pair with the migration count, and the per-stream remote
     * counters in @p merged pair with the fabric totals.
     */
    void auditCounters(
        const StatsRegistry &merged, Cycle now,
        std::vector<integrity::InvariantViolation> &out) const override;

    // --- Counters (audit + fig17) -----------------------------------------

    uint64_t requestsAccepted() const { return requestsAccepted_; }
    uint64_t requestsDelivered() const { return requestsDelivered_; }
    uint64_t responsesAccepted() const { return responsesAccepted_; }
    uint64_t responsesDelivered() const { return responsesDelivered_; }
    /** Payload + header bytes ever scheduled on any wire. */
    uint64_t bytesTransferred() const { return bytesTransferred_; }
    uint64_t pageMigrations() const { return pageMigrations_; }
    uint64_t migratedBytes() const { return migratedBytes_; }

    /** Requests not yet delivered into a destination L2. */
    uint64_t requestsInFlight() const;
    /** Responses not yet delivered back to the requesting SM. */
    uint64_t responsesInFlight() const;

    /** Busy cycles summed over every wire (utilization numerator). */
    double totalBusyCycles() const;

    const FabricConfig &config() const { return cfg_; }
    uint32_t numDevices() const { return numDevices_; }

  private:
    /** One on-the-wire packet: delivery due at @p dueAt (FIFO per link). */
    struct Packet
    {
        MemRequest req;
        Cycle dueAt = 0;
    };

    /** One directed link (either direction class). */
    struct Link
    {
        std::deque<MemRequest> queue;  ///< Admitted, awaiting bandwidth.
        std::deque<Packet> inFlight;   ///< On the wire, FIFO by dueAt.
        std::deque<MemRequest> landed; ///< Requests only: awaiting dst L2.
        IcntLink wire;

        explicit Link(const FabricConfig &cfg)
            : wire(cfg.linkBytesPerCycle, cfg.linkLatency)
        {
        }
    };

    Link &requestLink(uint32_t src, uint32_t dst);
    const Link &requestLink(uint32_t src, uint32_t dst) const;
    Link &responseLink(uint32_t src, uint32_t dst);
    const Link &responseLink(uint32_t src, uint32_t dst) const;

    uint32_t requestBytes(const MemRequest &req) const;
    void recordTouch(const MemRequest &req, uint32_t owner, Cycle now);
    void pump(Link &link, Cycle now, bool responses);
    /** Visit every packet queued, on a wire or landed, on any link. */
    void forEachInFlight(
        const std::function<void(const MemRequest &, bool response)> &fn)
        const;

    FabricConfig cfg_;
    uint32_t numDevices_;
    Addr windowBytes_;
    std::vector<Gpu *> devices_;
    /** links_[src * numDevices_ + dst]; diagonal entries stay empty. */
    std::vector<Link> requestLinks_;
    std::vector<Link> responseLinks_;
    /** Landing arbitration scratch, one flag per source device: the
     *  link refused this cycle. Reset in place per destination. */
    std::vector<uint8_t> blockedScratch_;

    /** Migration overrides: page number → current owner device. */
    std::map<Addr, uint32_t> pageOwner_;
    /** Remote-touch counts per (page number, touching device). */
    std::map<std::pair<Addr, uint32_t>, uint32_t> touches_;

    uint64_t requestsAccepted_ = 0;
    uint64_t requestsDelivered_ = 0;
    uint64_t responsesAccepted_ = 0;
    uint64_t responsesDelivered_ = 0;
    uint64_t bytesTransferred_ = 0;
    uint64_t pageMigrations_ = 0;
    uint64_t migratedBytes_ = 0;
    /** Packet moves: wire admissions, landings and deliveries (the
     *  watchdog's fabric progress term). */
    uint64_t workCount_ = 0;
};

} // namespace mgpu
} // namespace crisp

#endif // CRISP_MGPU_FABRIC_HPP
