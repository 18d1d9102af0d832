#ifndef CRISP_CORE_SMEM_BANKS_HPP
#define CRISP_CORE_SMEM_BANKS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

/**
 * Shared-memory bank conflicts of one warp access: the access holds the
 * port for as many cycles as the most distinct 4-byte words any one bank
 * serves (lanes reading the same word share one broadcast).
 */
class SmemBanks
{
  public:
    explicit SmemBanks(uint32_t banks) : counts_(banks, 0)
    {
        seen_.reserve(kWarpSize);
    }

    /** Port cycles (at least 1) of a warp access to the lane addresses
     *  @p addrs. */
    uint32_t
    conflictCycles(const std::vector<Addr> &addrs)
    {
        // Lane-linear words (lane i reads word w + i, how the generators
        // lay out shared memory) are all distinct and spread round-robin
        // over the banks, so the busiest bank serves ceil(lanes / banks).
        const size_t lanes = addrs.size();
        bool linear = true;
        for (size_t i = 1; i < lanes && linear; ++i) {
            linear = addrs[i] / 4 == addrs[0] / 4 + i;
        }
        const uint32_t banks = static_cast<uint32_t>(counts_.size());
        if (linear) {
            return std::max<uint32_t>(
                1, static_cast<uint32_t>((lanes + banks - 1) / banks));
        }
        // Member scratch: this runs per shared-memory instruction, so it
        // must not allocate.
        std::fill(counts_.begin(), counts_.end(), 0);
        seen_.clear();
        uint32_t worst = 1;
        for (Addr a : addrs) {
            const Addr word = a / 4;
            if (std::find(seen_.begin(), seen_.end(), word) != seen_.end()) {
                continue;   // broadcast within the warp is conflict-free
            }
            seen_.push_back(word);
            worst = std::max(worst, ++counts_[word % banks]);
        }
        return worst;
    }

  private:
    std::vector<uint32_t> counts_;   ///< Distinct words per bank.
    std::vector<Addr> seen_;         ///< Distinct words so far.
};

} // namespace crisp

#endif // CRISP_CORE_SMEM_BANKS_HPP
