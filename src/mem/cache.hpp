#ifndef CRISP_MEM_CACHE_HPP
#define CRISP_MEM_CACHE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace crisp
{

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    uint64_t sizeBytes = 128 * 1024;
    uint32_t ways = 8;
    uint32_t lineBytes = kLineBytes;
    /**
     * Sector size in bytes; 0 models an unsectored cache. Accel-Sim's
     * Ampere caches are sectored (32 B sectors in 128 B lines): tags are
     * line-granularity but data validity and fills are per sector, so a
     * miss fetches 32 B instead of the whole line.
     */
    uint32_t sectorBytes = 0;

    uint32_t numLines() const
    {
        return static_cast<uint32_t>(sizeBytes / lineBytes);
    }
    uint32_t numSets() const { return numLines() / ways; }
    uint32_t
    sectorsPerLine() const
    {
        return sectorBytes == 0 ? 1 : lineBytes / sectorBytes;
    }
};

/** Outcome of a single cache probe. */
struct CacheAccessResult
{
    bool hit = false;
    /**
     * Sectored caches only: the tag matched but the requested sector was
     * not yet valid — a "sector miss" that fetches sectorBytes without
     * evicting anything.
     */
    bool sectorMiss = false;
    /**
     * LRU stack position of the hit within its set (0 = MRU). Valid only on
     * hits; used by utility monitors (TAP case study).
     */
    uint32_t hitLruPos = 0;
    /** True when a valid line was evicted to make room. */
    bool evicted = false;
    Addr evictedLine = 0;
    bool evictedDirty = false;
    /**
     * Sector-validity bitmap of the evicted line at eviction time. A
     * partially filled sectored line writes back only its valid sectors,
     * so writeback accounting needs the bitmap, not just the dirty bit.
     */
    uint8_t evictedValidSectors = 0;
};

/**
 * Outcome of a fill-time install (SetAssocCache::fill). Fills are data
 * returns for a tag that was (usually) installed at miss time, so they are
 * not demand accesses and never count toward accesses()/hits().
 */
struct CacheFillResult
{
    /**
     * The tag was still resident (the common case: installed at miss time
     * and not displaced since). The fill validates the sector in place.
     */
    bool wasPresent = false;
    /**
     * The tag had been evicted between miss and fill ("interim eviction")
     * and the re-install displaced a valid victim.
     */
    bool evicted = false;
    Addr evictedLine = 0;
    bool evictedDirty = false;
    uint8_t evictedValidSectors = 0;
};

/** Per-class line occupancy snapshot (L2 composition, Figs 11/15). */
struct CacheComposition
{
    /** Valid-line count per DataClass, indexed by the enum value. */
    std::array<uint64_t, static_cast<size_t>(DataClass::NumClasses)> byClass{};
    uint64_t validLines = 0;
    uint64_t totalLines = 0;
    /**
     * Valid lines whose owning stream has a set window that no longer
     * covers the line's set (a TAP repartition shrank the window after the
     * line was installed). mapSet only returns in-window sets, so the
     * stream can never hit these lines again; they are dead capacity held
     * against the stream. Stranded lines are still counted in byClass /
     * validLines — this field reports the overlap separately.
     */
    uint64_t strandedLines = 0;

    /** Share of *valid* lines holding class @p c (composition plots). */
    double fraction(DataClass c) const
    {
        return validLines == 0
            ? 0.0
            : static_cast<double>(byClass[static_cast<size_t>(c)]) /
                  static_cast<double>(validLines);
    }

    /** Occupancy of the whole array. */
    double validFraction() const
    {
        return totalLines == 0
            ? 0.0
            : static_cast<double>(validLines) /
                  static_cast<double>(totalLines);
    }
};

/**
 * Set-associative cache tag store with true-LRU replacement.
 *
 * Models tags and replacement state only (the simulator is trace-driven, so
 * no data payload is needed). Supports the paper's set-level partitioning:
 * an optional per-stream set *window* remaps a stream's accesses into a
 * contiguous subset of the sets, which is how CRISP models TAP's L2 set
 * assignment ("each bank is partitioned by assigning sets to each workload",
 * §VI-C) without disturbing unpartitioned streams.
 *
 * Tag state is stored structure-of-arrays: the way-scan on every access
 * touches only the tag array (an invalid way holds a tag no line has)
 * instead of striding across 40-byte line records, and power-of-two
 * geometries resolve set/tag with precomputed shifts and masks.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    /**
     * Probe and (on a read or write-allocate miss) fill the line.
     *
     * @param line line-aligned address (sectored caches accept any
     *        sector-aligned address and validate just that sector)
     * @param write true for stores (write-allocate policy)
     * @param stream owning stream for partition/composition accounting
     * @param cls data classification recorded on fill
     * @param allocate_on_miss when false, a miss does not install the line
     *        (used for the L1's write-through/no-allocate stores)
     */
    CacheAccessResult access(Addr line, bool write, StreamId stream,
                             DataClass cls, bool allocate_on_miss = true);

    /**
     * Complete an outstanding miss: validate the line/sector without
     * counting a demand access. Unlike access(), fill() never touches
     * accesses_/hits_ (fills are data returns, not probes) and does not
     * refresh LRU when the tag is already resident — recency was claimed
     * by the demand access at miss time. If the tag was evicted between
     * miss and fill, the line is re-installed (victim: first invalid way,
     * else true LRU) and the eviction is reported exactly once in the
     * result so the caller can account the writeback deterministically.
     */
    CacheFillResult fill(Addr line, bool write, StreamId stream,
                         DataClass cls);

    /** Fill-time installs/refreshes completed (see fill()). */
    uint64_t fills() const { return fills_; }

    /** Sector misses observed (sectored geometries only). */
    uint64_t sectorMisses() const { return sectorMisses_; }

    /** True if the line is currently resident (no LRU update). */
    bool probe(Addr line, StreamId stream) const;

    /** Invalidate everything (partition reconfiguration). */
    void invalidateAll();

    /** Invalidate lines owned by one stream. */
    void invalidateStream(StreamId stream);

    /**
     * Restrict @p stream to @p count sets starting at @p first. Accesses are
     * remapped with modulo into the window. Pass count = numSets, first = 0
     * to reset to the full cache.
     */
    void setStreamSetWindow(StreamId stream, uint32_t first, uint32_t count);

    /** Remove all set windows (fully shared cache). */
    void clearSetWindows();

    /** Occupancy snapshot for composition plots. */
    CacheComposition composition() const;

    /**
     * Enable/disable CacheAccessResult::hitLruPos computation (default
     * on). The per-hit LRU-stack scan costs an extra pass over the set;
     * callers that ignore the field (the SM's L1) turn it off, and the
     * L2 turns it on only while an access listener (TAP's utility
     * monitors) reads it.
     */
    void setHitLruPosReporting(bool enabled) { reportHitLruPos_ = enabled; }

    const CacheGeometry &geometry() const { return geom_; }

    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    double hitRate() const
    {
        return accesses_ == 0
            ? 0.0
            : static_cast<double>(hits_) / static_cast<double>(accesses_);
    }

  private:
    struct SetWindow
    {
        StreamId stream = kInvalidStream;
        uint32_t first = 0;
        uint32_t count = 0;
    };

    /** Line flag bits (flags_ array); a way is valid when its tag is
     *  not kNoTag. */
    static constexpr uint8_t kDirty = 0x2;
    static constexpr uint32_t kNoWay = ~0u;
    /** Tag of an invalid way: no line has it (see the constructor), so
     *  a hit test reads tags_ alone. */
    static constexpr Addr kNoTag = ~Addr{0};

    uint32_t mapSet(Addr line, StreamId stream) const;
    const SetWindow *windowFor(StreamId stream) const;
    /** Index into the way arrays of the resident tag, or kNoWay. */
    uint32_t findWayIndex(uint32_t set, Addr tag) const;
    uint32_t lruPosition(uint32_t set, uint32_t idx) const;
    /** First invalid way of the set, else the true-LRU victim. Reports
     *  the eviction (if any) into @p evicted/...; scan order breaks
     *  lastUse ties low-way-first. */
    uint32_t pickVictim(uint32_t set, bool &evicted, Addr &evicted_line,
                        bool &evicted_dirty, uint8_t &evicted_sectors) const;
    void installLine(uint32_t idx, Addr tag, bool write, StreamId stream,
                     DataClass cls, uint8_t sector_bit);
    void clearLine(uint32_t idx);

    CacheGeometry geom_;
    uint32_t numSets_ = 0;
    uint32_t ways_ = 0;
    /** Power-of-two fast paths (0 = use division fallback). */
    uint32_t lineShift_ = 0;
    uint32_t setMask_ = 0;
    bool pow2Line_ = false;
    bool pow2Sets_ = false;
    bool reportHitLruPos_ = true;

    // Structure-of-arrays line state, indexed set * ways + way.
    std::vector<Addr> tags_;
    std::vector<uint64_t> lastUse_;
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> validSectors_;
    std::vector<StreamId> streams_;
    std::vector<DataClass> classes_;

    std::vector<SetWindow> windows_;
    uint64_t useCounter_ = 0;
    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t sectorMisses_ = 0;
    uint64_t fills_ = 0;
};

} // namespace crisp

#endif // CRISP_MEM_CACHE_HPP
