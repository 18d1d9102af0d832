#ifndef CRISP_MEM_MEM_REQUEST_HPP
#define CRISP_MEM_MEM_REQUEST_HPP

#include <cstdint>

#include "common/types.hpp"

namespace crisp
{

/**
 * A cache-line-granularity memory request flowing between an SM and the
 * L2/DRAM subsystem.
 *
 * Requests are created by the LDST unit after coalescing, carry the issuing
 * SM and a completion key so responses can wake the right warp instruction,
 * and are tagged with the stream and data class for per-stream statistics
 * and L2 composition accounting.
 */
struct MemRequest
{
    Addr line = 0;              ///< 128 B aligned line address.
    bool write = false;
    StreamId stream = 0;
    DataClass dataClass = DataClass::Unknown;
    uint32_t smId = 0;
    /**
     * Opaque completion key assigned by the issuing SM; responses echo it.
     * Writes use kNoCompletion and are fire-and-forget.
     */
    uint64_t completionKey = kNoCompletion;
    Cycle readyAt = 0;          ///< Earliest cycle the current stage may act.
    /**
     * Device that issued the request. Stamped by the owning Gpu on submit
     * and echoed by the L2 in the response, so a multi-GPU fabric can
     * route a remote fill back to the requesting device. Single-GPU runs
     * leave it 0 throughout.
     */
    uint32_t srcDevice = 0;

    static constexpr uint64_t kNoCompletion = ~0ull;

    bool expectsResponse() const { return completionKey != kNoCompletion; }
};

/**
 * What a refused request waits on before a re-offer can succeed. An L2
 * bank refuses only when its queue is full, so while the request still
 * routes to that bank (the L2's routing epoch has not moved) and the
 * bank's queue is still full, a re-offer would be refused again: the
 * gate is closed. A gate with no bank (a remote link, whose room moves
 * without any bank pop) is always open.
 */
struct RetryGate
{
    const uint8_t *full = nullptr;    ///< The refusing bank's full flag.
    const uint64_t *route = nullptr;  ///< The L2's routing epoch.
    uint64_t routeSeen = 0;           ///< Its value at the refusal.
    uint32_t bank = 0;                ///< The refusing bank.

    bool
    open() const
    {
        return full == nullptr || *full == 0 || *route != routeSeen;
    }
};

} // namespace crisp

#endif // CRISP_MEM_MEM_REQUEST_HPP
