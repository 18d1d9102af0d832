#include "mgpu/fabric.hpp"

#include <utility>

#include <algorithm>
#include <cinttypes>

#include "common/logging.hpp"
#include "integrity/report.hpp"

namespace crisp
{
namespace mgpu
{

InterGpuFabric::InterGpuFabric(const FabricConfig &cfg,
                               uint32_t num_devices, Addr window_bytes)
    : cfg_(cfg), numDevices_(num_devices), windowBytes_(window_bytes)
{
    fatal_if(numDevices_ < 2, "a fabric needs at least 2 devices");
    fatal_if(windowBytes_ == 0, "device heap window must be non-zero");
    fatal_if(cfg_.linkBytesPerCycle <= 0.0,
             "link bandwidth must be positive");
    fatal_if(cfg_.requestQueueCapacity == 0,
             "request queue capacity must be non-zero");
    fatal_if(cfg_.migrateAfter != 0 && cfg_.pageBytes == 0,
             "page migration needs a non-zero page size");
    devices_.assign(numDevices_, nullptr);
    blockedScratch_.assign(numDevices_, 0);
    requestLinks_.reserve(numDevices_ * numDevices_);
    responseLinks_.reserve(numDevices_ * numDevices_);
    for (uint32_t i = 0; i < numDevices_ * numDevices_; ++i) {
        requestLinks_.emplace_back(cfg_);
        responseLinks_.emplace_back(cfg_);
    }
}

void
InterGpuFabric::attachDevice(uint32_t id, Gpu *gpu)
{
    fatal_if(id >= numDevices_, "device id %u out of range", id);
    fatal_if(gpu == nullptr, "attaching a null device");
    devices_[id] = gpu;
}

uint32_t
InterGpuFabric::staticOwnerOf(Addr line) const
{
    const Addr w = line / windowBytes_;
    return w >= numDevices_ ? numDevices_ - 1 : static_cast<uint32_t>(w);
}

uint32_t
InterGpuFabric::ownerOf(Addr line) const
{
    if (!pageOwner_.empty()) {
        const auto it = pageOwner_.find(line / cfg_.pageBytes);
        if (it != pageOwner_.end()) {
            return it->second;
        }
    }
    return staticOwnerOf(line);
}

InterGpuFabric::Link &
InterGpuFabric::requestLink(uint32_t src, uint32_t dst)
{
    return requestLinks_[src * numDevices_ + dst];
}

const InterGpuFabric::Link &
InterGpuFabric::requestLink(uint32_t src, uint32_t dst) const
{
    return requestLinks_[src * numDevices_ + dst];
}

InterGpuFabric::Link &
InterGpuFabric::responseLink(uint32_t src, uint32_t dst)
{
    return responseLinks_[src * numDevices_ + dst];
}

const InterGpuFabric::Link &
InterGpuFabric::responseLink(uint32_t src, uint32_t dst) const
{
    return responseLinks_[src * numDevices_ + dst];
}

uint32_t
InterGpuFabric::requestBytes(const MemRequest &req) const
{
    // A store carries its line; a load request is header-only (the line
    // comes back on the response link).
    return req.write ? cfg_.headerBytes + kLineBytes : cfg_.headerBytes;
}

bool
InterGpuFabric::submitRemote(MemRequest req, Cycle now)
{
    const uint32_t src = req.srcDevice;
    const uint32_t dst = ownerOf(req.line);
    panic_if(src >= numDevices_, "remote submit from unknown device %u",
             src);
    panic_if(src == dst, "remote submit for a locally owned line");
    Link &link = requestLink(src, dst);
    if (link.queue.size() >= cfg_.requestQueueCapacity) {
        return false;
    }
    if (cfg_.migrateAfter != 0) {
        recordTouch(req, dst, now);
    }
    link.queue.push_back(std::move(req));
    ++requestsAccepted_;
    return true;
}

void
InterGpuFabric::recordTouch(const MemRequest &req, uint32_t owner,
                            Cycle now)
{
    const Addr page = req.line / cfg_.pageBytes;
    const uint32_t toucher = req.srcDevice;
    if (++touches_[{page, toucher}] < cfg_.migrateAfter) {
        return;
    }
    // K-th remote touch: the page moves to the toucher. The triggering
    // request still traverses remotely (it was routed above); the bulk
    // copy is charged on the owner → toucher response wire, delaying
    // fills behind it — migration is not free bandwidth.
    pageOwner_[page] = toucher;
    touches_.erase(touches_.lower_bound({page, 0}),
                   touches_.upper_bound({page, numDevices_}));
    ++pageMigrations_;
    migratedBytes_ += cfg_.pageBytes;
    bytesTransferred_ += cfg_.pageBytes;
    responseLink(owner, toucher)
        .wire.transfer(now, static_cast<uint32_t>(cfg_.pageBytes));
    if (devices_[toucher] != nullptr) {
        devices_[toucher]->stats().stream(req.stream).pageMigrations++;
    }
    // The old owner's requests for this page now route over the fabric,
    // not to the local bank that refused them: re-offer them all.
    if (devices_[owner] != nullptr) {
        devices_[owner]->l2().rerouted();
    }
}

void
InterGpuFabric::submitRemoteResponse(MemRequest resp, uint32_t from_device,
                                     Cycle now)
{
    (void)now;
    panic_if(from_device >= numDevices_ ||
                 resp.srcDevice >= numDevices_ ||
                 resp.srcDevice == from_device,
             "bad response route %u -> %u", from_device, resp.srcDevice);
    responseLink(from_device, resp.srcDevice)
        .queue.push_back(std::move(resp));
    ++responsesAccepted_;
}

void
InterGpuFabric::pump(Link &link, Cycle now, bool responses)
{
    // Admit queued packets onto the wire until it is booked at least one
    // cycle ahead: sustained throughput tracks linkBytesPerCycle while
    // every admission stays deterministic.
    // Responses carry the full line.
    while (!link.queue.empty() && link.wire.backlog(now) == 0) {
        MemRequest req = std::move(link.queue.front());
        link.queue.pop_front();
        const uint32_t bytes = responses ? cfg_.headerBytes + kLineBytes
                                         : requestBytes(req);
        const Cycle due = link.wire.transfer(now, bytes);
        bytesTransferred_ += bytes;
        link.inFlight.push_back({std::move(req), due});
        ++workCount_;
    }
}

void
InterGpuFabric::step(Cycle now)
{
    // Every move below acts on a packet of one class, and none makes a
    // packet: a class with none accepted and not yet delivered has
    // nothing to walk, and with neither the step returns at once.
    const bool requests = requestsInFlight() != 0;
    const bool responses = responsesInFlight() != 0;

    // 1. Land due request packets (wire → destination landing queue),
    // 2. then drain the landing queues into destination L2s.
    if (requests) {
        for (Link &link : requestLinks_) {
            while (!link.inFlight.empty() &&
                   link.inFlight.front().dueAt <= now) {
                link.landed.push_back(std::move(link.inFlight.front().req));
                link.inFlight.pop_front();
                ++workCount_;
            }
        }
        drainLanded(now);
    }

    // 3. Deliver due response packets straight to the requesting SM
    //    (memResponse never refuses; the L1 fill path absorbs it).
    if (responses) {
        for (Link &link : responseLinks_) {
            while (!link.inFlight.empty() &&
                   link.inFlight.front().dueAt <= now) {
                MemRequest resp = std::move(link.inFlight.front().req);
                link.inFlight.pop_front();
                devices_[resp.srcDevice]->deliverRemoteResponse(resp, now);
                ++responsesDelivered_;
                ++workCount_;
            }
        }
    }

    // 4. Pump admissions onto the wires. Doing this last gives every
    //    packet at least one full cycle of queue residency, matching the
    //    submit-then-step order of the in-device bank queues.
    if (requests) {
        for (Link &link : requestLinks_) {
            pump(link, now, false);
        }
    }
    if (responses) {
        for (Link &link : responseLinks_) {
            pump(link, now, true);
        }
    }
}

void
InterGpuFabric::drainLanded(Cycle now)
{
    // Round-robin across source devices with a rotation start that is a
    // pure function of the cycle, one grant per link per round, so no
    // source link can starve another under a saturated destination. A bank refusal blocks that link for this
    // cycle (bank queues drain during the device tick, after this step).
    for (uint32_t dst = 0; dst < numDevices_; ++dst) {
        const uint32_t start =
            static_cast<uint32_t>(now % static_cast<Cycle>(numDevices_));
        bool progress = true;
        std::fill(blockedScratch_.begin(), blockedScratch_.end(), 0);
        while (progress) {
            progress = false;
            for (uint32_t r = 0; r < numDevices_; ++r) {
                const uint32_t src = (start + r) % numDevices_;
                if (src == dst || blockedScratch_[src] != 0) {
                    continue;
                }
                Link &link = requestLink(src, dst);
                if (link.landed.empty()) {
                    continue;
                }
                if (!devices_[dst]->acceptRemoteRequest(
                        link.landed.front(), now)) {
                    blockedScratch_[src] = 1;
                    continue;
                }
                link.landed.pop_front();
                ++requestsDelivered_;
                ++workCount_;
                progress = true;
            }
        }
    }
}

bool
InterGpuFabric::idle() const
{
    return requestsAccepted_ == requestsDelivered_ &&
        responsesAccepted_ == responsesDelivered_;
}

Cycle
InterGpuFabric::nextEventCycle(Cycle now) const
{
    Cycle wake = kNeverCycle;
    if (idle()) {
        return wake;
    }
    auto consider = [&](const Link &link) {
        if (!link.inFlight.empty()) {
            wake = std::min(wake, link.inFlight.front().dueAt);
        }
        if (!link.landed.empty()) {
            wake = std::min(wake, now + 1);   // re-offered every cycle
        }
        if (!link.queue.empty()) {
            // pump() admits once the wire is booked less than a cycle
            // ahead: the first cycle with zero backlog.
            wake = std::min(wake, now + std::max<Cycle>(
                                            1, link.wire.backlog(now)));
        }
    };
    for (const Link &link : requestLinks_) {
        consider(link);
    }
    for (const Link &link : responseLinks_) {
        consider(link);
    }
    return wake;
}

void
InterGpuFabric::forEachInFlight(
    const std::function<void(const MemRequest &, bool response)> &fn) const
{
    for (const std::vector<Link> *links : {&requestLinks_, &responseLinks_}) {
        const bool response = links == &responseLinks_;
        for (const Link &link : *links) {
            for (const MemRequest &req : link.queue) {
                fn(req, response);
            }
            for (const Packet &p : link.inFlight) {
                fn(p.req, response);
            }
            for (const MemRequest &req : link.landed) {
                fn(req, response);
            }
        }
    }
}

uint64_t
InterGpuFabric::readsInFlight() const
{
    // Responses answer reads, so expectsResponse() holds for them too.
    uint64_t n = 0;
    forEachInFlight([&](const MemRequest &req, bool) {
        n += req.expectsResponse();
    });
    return n;
}

bool
InterGpuFabric::lineInFlightFor(uint32_t device, uint32_t sm,
                                Addr line) const
{
    bool found = false;
    forEachInFlight([&](const MemRequest &req, bool) {
        found |= req.srcDevice == device && req.smId == sm &&
                 req.line == line && req.expectsResponse();
    });
    for (uint32_t peer = 0; peer < numDevices_ && !found; ++peer) {
        found = peer != device &&
                devices_[peer]->l2().lineInFlightFor(sm, line);
    }
    return found;
}

void
InterGpuFabric::auditCounters(const StatsRegistry &merged, Cycle now,
                              std::vector<integrity::InvariantViolation> &out)
    const
{
    auto expect = [&](uint64_t lhs, uint64_t rhs, const char *what) {
        if (lhs != rhs) {
            out.push_back(
                {"counter-fabric-conservation",
                 logging_detail::formatMessage(
                     "%s (%" PRIu64 " != %" PRIu64 ")", what, lhs, rhs),
                 now});
        }
    };
    // Every accepted packet is delivered or still in flight, migration
    // byte accounting pairs with the count, and the per-stream remote
    // counters pair with the fabric totals: every accepted request was
    // counted remoteAccesses by its source device, every delivered
    // response remoteResponses.
    expect(requestsAccepted_,
           requestsDelivered_ + walkInFlight(requestLinks_),
           "fabric requests accepted != delivered + in flight");
    expect(responsesAccepted_,
           responsesDelivered_ + walkInFlight(responseLinks_),
           "fabric responses accepted != delivered + in flight");
    expect(migratedBytes_, pageMigrations_ * cfg_.pageBytes,
           "fabric migrated bytes != migrations * page size");
    expect(merged.sumOver(&StreamStats::remoteAccesses), requestsAccepted_,
           "stream remoteAccesses sum != fabric requests accepted");
    expect(merged.sumOver(&StreamStats::remoteResponses),
           responsesDelivered_,
           "stream remoteResponses sum != fabric responses delivered");
}

uint64_t
InterGpuFabric::walkInFlight(const std::vector<Link> &links) const
{
    uint64_t n = 0;
    for (const Link &link : links) {
        n += link.queue.size() + link.inFlight.size() + link.landed.size();
    }
    return n;
}

void
InterGpuFabric::countInFlightByStream(
    SmallFlatMap<StreamId, uint64_t> &out) const
{
    forEachInFlight([&](const MemRequest &req, bool response) {
        if (!response) {
            out[req.stream]++;
        }
    });
}

double
InterGpuFabric::totalBusyCycles() const
{
    double busy = 0.0;
    for (const Link &link : requestLinks_) {
        busy += link.wire.busyCycles();
    }
    for (const Link &link : responseLinks_) {
        busy += link.wire.busyCycles();
    }
    return busy;
}

} // namespace mgpu
} // namespace crisp
