#ifndef CRISP_PARTITION_TAP_HPP
#define CRISP_PARTITION_TAP_HPP

#include <array>
#include <vector>

#include "gpu/gpu.hpp"

namespace crisp
{

/** TAP tuning knobs. */
struct TapConfig
{
    StreamId gfxStream = 0;
    StreamId computeStream = 1;
    Cycle epoch = 50000;      ///< Repartitioning period in cycles.
    uint32_t maxLruPos = 16;  ///< LRU stack depth tracked by the monitors.
    /**
     * TLP-awareness threshold: when one stream's L2 access rate is below
     * this fraction of the other's, it is treated as cache-insensitive and
     * receives the minimum allocation (the paper observes exactly this for
     * the compute-bound HOLO workload, which ends up with a single set).
     */
    double accessRatioFloor = 0.02;
};

/**
 * TAP (Lee & Kim, HPCA'12) applied to the GPU's shared L2, as evaluated in
 * Fig 14/15: utility-based cache partitioning corrected for the large
 * access-rate mismatch between rendering and compute streams.
 *
 * Utility monitors record, per stream, the LRU stack position of every L2
 * hit. At each epoch boundary the marginal-utility curves decide a set
 * split: each bank's sets are divided between the two streams
 * proportionally to their measured utility, with a minimum of one set each
 * (CRISP models TAP at set granularity, §VI-C). The TLP-aware correction
 * prevents the high-access-rate graphics stream from being starved *or*
 * from ceding capacity to a compute stream that cannot use it.
 */
class TapController : public GpuController
{
  public:
    TapController(const TapConfig &cfg, Gpu &gpu);

    void onCycle(Gpu &gpu, Cycle now) override;

    /** Sets per bank currently assigned to the graphics stream. */
    uint32_t gfxSets() const { return gfxSets_; }
    uint32_t computeSets() const { return computeSets_; }

    /** (cycle, gfxSets) repartitioning decisions. */
    const std::vector<std::pair<Cycle, uint32_t>> &decisions() const
    {
        return decisions_;
    }

  private:
    struct Umon
    {
        uint64_t accesses = 0;
        uint64_t hits = 0;
        std::vector<uint64_t> hitsAtPos;

        double
        utility() const
        {
            // Marginal utility: realized hits plus a small access-rate
            // term, so a high-traffic stream that currently misses (e.g.
            // streaming under a too-small window) still registers demand —
            // this is the TLP-aware correction over plain UCP.
            double u = 0.02 * static_cast<double>(accesses);
            for (size_t p = 0; p < hitsAtPos.size(); ++p) {
                u += static_cast<double>(hitsAtPos[p]);
            }
            return u;
        }
    };

    void repartition(Gpu &gpu, Cycle now);

    TapConfig cfg_;
    Cycle nextEpoch_;
    Umon gfx_;
    Umon compute_;
    uint32_t gfxSets_ = 0;
    uint32_t computeSets_ = 0;
    std::vector<std::pair<Cycle, uint32_t>> decisions_;
};

} // namespace crisp

#endif // CRISP_PARTITION_TAP_HPP
