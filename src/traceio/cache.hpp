#ifndef CRISP_TRACEIO_CACHE_HPP
#define CRISP_TRACEIO_CACHE_HPP

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "graphics/address_space.hpp"
#include "isa/trace.hpp"

namespace crisp::traceio
{

/** FNV-1a 64-bit hash of a cache key string. */
uint64_t keyHash(const std::string &key);

/**
 * Content-addressed on-disk cache of packed workload traces.
 *
 * Keys are full generator-configuration descriptions (generator name,
 * every parameter, heap base, machine constants, format version); the
 * key hashes to the cache file name and is stored verbatim as the
 * trace fingerprint, so a hash collision or a stale file is detected
 * by string compare and treated as a miss — content addressing means
 * a changed configuration can never replay the wrong trace.
 *
 * Disabled by default: construction from the environment only enables
 * the cache when CRISP_TRACE_CACHE names a directory. A corrupt or
 * truncated cache file is diagnosed (warn with the trace-io error),
 * dropped, and rebuilt — cache damage degrades to generation cost,
 * never to wrong simulation input.
 *
 * Safe under concurrent populates from multiple threads *and*
 * processes (several simulator processes may share one cache
 * directory): each writer stages through a unique pid+tid-suffixed temp
 * file before the atomic rename, so two writers never interleave
 * bytes, and a writer that loses the rename race treats the other
 * writer's (identical-keyed) entry as the cache being populated — a
 * win, not an error. Counters are atomics for the same reason.
 */
class TraceCache
{
  public:
    /** Disabled cache: loadOrBuild always builds. */
    TraceCache() = default;

    /** Cache rooted at @p dir (created if missing). */
    explicit TraceCache(std::string dir);

    /** Honour CRISP_TRACE_CACHE; unset or empty leaves the cache off. */
    static TraceCache fromEnv();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Cache file path a key maps to ("<dir>/<hash16>.crtr"). */
    std::string pathForKey(const std::string &key) const;

    using Builder = std::function<std::vector<KernelInfo>(AddressSpace &)>;

    /**
     * Return the kernels for @p key: replayed from the cache on a hit
     * (heap advanced by the recorded footprint so later allocations
     * stay disjoint), generated via @p build and packed into the cache
     * on a miss. With the cache disabled this is exactly build(heap).
     */
    std::vector<KernelInfo> loadOrBuild(const std::string &key,
                                        AddressSpace &heap,
                                        const Builder &build,
                                        bool *hit_out = nullptr);

    struct Stats
    {
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        /** Cache files rejected (corrupt, truncated, key mismatch). */
        std::atomic<uint64_t> rejects{0};
        /** Failed attempts to populate the cache (I/O errors). */
        std::atomic<uint64_t> storeFailures{0};
        /** Populates that lost the rename race to a concurrent writer
         *  (the entry exists either way, so this is not a failure). */
        std::atomic<uint64_t> populateRaces{0};
    };
    const Stats &stats() const { return stats_; }

  private:
    std::string dir_;
    Stats stats_;
};

} // namespace crisp::traceio

#endif // CRISP_TRACEIO_CACHE_HPP
