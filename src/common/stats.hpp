#ifndef CRISP_COMMON_STATS_HPP
#define CRISP_COMMON_STATS_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

/**
 * A fixed-bucket histogram over non-negative integer samples.
 *
 * Used for the paper's static trace analyses such as Fig 10 (texture cache
 * lines referenced per CTA).
 */
class Histogram
{
  public:
    /** @param max_value samples above this are clamped into the last bucket */
    explicit Histogram(uint64_t max_value = 64);

    void add(uint64_t value, uint64_t weight = 1);

    uint64_t count(uint64_t bucket) const;
    uint64_t totalSamples() const { return samples_; }
    double mean() const;
    /** Smallest value with a non-zero count, or 0 when empty. */
    uint64_t minValue() const;
    uint64_t maxValue() const;
    /** Bucket with the highest count (the mode); ties pick the smaller. */
    uint64_t modeBucket() const;
    uint64_t maxTracked() const { return maxValue_; }

    /** Merge another histogram into this one (same max_value required). */
    void merge(const Histogram &other);

  private:
    uint64_t maxValue_;
    uint64_t samples_ = 0;
    uint64_t weightedSum_ = 0;
    std::vector<uint64_t> buckets_;
};

/**
 * Per-stream statistics block.
 *
 * The paper (§III-A) notes that Accel-Sim aggregates statistics across
 * streams, which is misleading under concurrent execution, and extends the
 * model to per-stream stat tracking. StreamStats is the per-stream record;
 * StatsRegistry owns one per stream plus the machine-wide aggregates.
 */
struct StreamStats
{
    uint64_t cycles = 0;            ///< Cycles in which the stream had work.
    uint64_t instructions = 0;      ///< Warp-instructions issued.
    uint64_t warpsLaunched = 0;
    uint64_t ctasLaunched = 0;
    uint64_t kernelsCompleted = 0;

    uint64_t l1Accesses = 0;
    uint64_t l1Hits = 0;
    /** L1 accesses merged into an in-flight L1 MSHR fill (neither hit nor
     *  new miss; audit: l1Accesses − l1Hits − l1MshrMerges = L1 misses
     *  sent toward the L2). */
    uint64_t l1MshrMerges = 0;
    uint64_t l1TexAccesses = 0;     ///< Texture loads through the unified L1.
    uint64_t l2Accesses = 0;
    uint64_t l2Hits = 0;
    /** L2 accesses merged into an in-flight L2 MSHR fill (audit:
     *  l2Accesses = l2Hits + l2MshrMerges + dramReads). */
    uint64_t l2MshrMerges = 0;
    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
    uint64_t smemAccesses = 0;
    uint64_t smemBankConflicts = 0;

    /** L1 misses routed over the inter-GPU fabric to a peer device's L2
     *  (counted on the issuing device; the peer counts the l2Accesses). */
    uint64_t remoteAccesses = 0;
    /** Remote fills returned over the fabric to this device's SMs. */
    uint64_t remoteResponses = 0;
    /** Pages this stream's remote touches migrated to the touching device. */
    uint64_t pageMigrations = 0;

    Cycle firstCycle = 0;           ///< Cycle the first CTA issued (0 = unset).
    Cycle lastCycle = 0;            ///< Cycle the last CTA committed.

    /**
     * Fold a delta block into this one: counters add, firstCycle keeps
     * the earliest non-zero mark (min over set values — blocks can
     * arrive out of order), lastCycle keeps the latest. Folds each SM's
     * blocks into its GPU's registry and merges device registries.
     */
    void absorb(const StreamStats &delta);

    double l1HitRate() const;
    double l2HitRate() const;
    double ipc() const;
};

/**
 * Registry of per-stream stat blocks, backing the paper's concurrency
 * case studies.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    // The dense stream index caches pointers into this registry's own map
    // nodes, so copies must drop it (it is rebuilt on first access).
    StatsRegistry(const StatsRegistry &other) : streams_(other.streams_) {}
    StatsRegistry &
    operator=(const StatsRegistry &other)
    {
        streams_ = other.streams_;
        streamIndex_.clear();
        return *this;
    }
    // Moves transfer the map nodes, so the cached pointers stay valid.
    StatsRegistry(StatsRegistry &&) = default;
    StatsRegistry &operator=(StatsRegistry &&) = default;

    /**
     * Per-stream structured stats (created on first access). O(1) for the
     * small stream ids the GPU allocates: a dense pointer index fronts
     * the ordered map, which profiling showed on the per-issue path.
     */
    StreamStats &
    stream(StreamId id)
    {
        if (id < streamIndex_.size() && streamIndex_[id] != nullptr) {
            return *streamIndex_[id];
        }
        return streamSlow(id);
    }
    const StreamStats *findStream(StreamId id) const;
    const std::map<StreamId, StreamStats> &allStreams() const;

    /** Sum of a member over all streams, e.g. total instructions. */
    template <typename T>
    uint64_t
    sumOver(T StreamStats::*member) const
    {
        uint64_t total = 0;
        for (const auto &[id, st] : streams_) {
            total += static_cast<uint64_t>(st.*member);
        }
        return total;
    }

    void clear();

    /** Fold every per-stream block of @p other into this registry
     *  (StreamStats::absorb); @p other is left unchanged. */
    void merge(const StatsRegistry &other);

  private:
    StreamStats &streamSlow(StreamId id);

    std::map<StreamId, StreamStats> streams_;
    /** Dense id → map-node pointer cache (map nodes never move). */
    std::vector<StreamStats *> streamIndex_;
};

} // namespace crisp

#endif // CRISP_COMMON_STATS_HPP
