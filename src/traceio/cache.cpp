#include "traceio/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <system_error>
#include <thread>

#include "common/logging.hpp"
#include "traceio/reader.hpp"
#include "traceio/writer.hpp"

namespace crisp::traceio
{

uint64_t
keyHash(const std::string &key)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("trace cache: cannot create %s (%s); cache disabled",
             dir_.c_str(), ec.message().c_str());
        dir_.clear();
    }
}

TraceCache
TraceCache::fromEnv()
{
    const char *dir = std::getenv("CRISP_TRACE_CACHE");
    if (dir == nullptr || dir[0] == '\0') {
        return TraceCache();
    }
    return TraceCache(dir);
}

std::string
TraceCache::pathForKey(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.crtr",
                  static_cast<unsigned long long>(keyHash(key)));
    return dir_ + "/" + name;
}

std::vector<KernelInfo>
TraceCache::loadOrBuild(const std::string &key, AddressSpace &heap,
                        const Builder &build, bool *hit_out)
{
    if (hit_out != nullptr) {
        *hit_out = false;
    }
    if (!enabled()) {
        return build(heap);
    }

    const std::string path = pathForKey(key);
    if (std::filesystem::exists(path)) {
        LoadedTrace loaded;
        TraceError err;
        if (loadTrace(path, loaded, err)) {
            if (loaded.fingerprint == key) {
                // Advance the heap exactly as the generator would have,
                // so callers allocating after us stay clear of the
                // addresses baked into the replayed trace.
                if (loaded.heapBytesUsed > 0) {
                    heap.alloc(loaded.heapBytesUsed, 1);
                }
                ++stats_.hits;
                if (hit_out != nullptr) {
                    *hit_out = true;
                }
                return std::move(loaded.kernels);
            }
            warn("trace cache: %s fingerprint mismatch (hash collision or "
                 "stale config); regenerating",
                 path.c_str());
        } else {
            warn("trace cache: rejecting %s: %s; regenerating",
                 path.c_str(), err.render().c_str());
        }
        ++stats_.rejects;
    }

    ++stats_.misses;
    const Addr heap_before = heap.allocatedEnd();
    std::vector<KernelInfo> kernels = build(heap);
    const uint64_t heap_used = heap.allocatedEnd() - heap_before;

    // Populate via a temp file + atomic rename so concurrent readers
    // never see a half-written trace. The temp name is unique per
    // writer (pid + thread id): two threads or two *processes* racing
    // to populate the same key each stage their own bytes — a shared
    // temp name would interleave writes and install garbage.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<uint64_t>(getpid())) +
        "." +
        std::to_string(std::hash<std::thread::id>{}(
            std::this_thread::get_id()));
    TraceError err;
    if (!writeTrace(tmp, key, kernels, {}, heap_used, err)) {
        warn("trace cache: cannot populate %s: %s", path.c_str(),
             err.render().c_str());
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        ++stats_.storeFailures;
        return kernels;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code exists_ec;
        std::filesystem::remove(tmp, exists_ec);
        if (std::filesystem::exists(path, exists_ec)) {
            // Lost the rename race: a concurrent writer installed its
            // entry for this key first. Content addressing makes the
            // two entries interchangeable, so the cache is populated
            // either way — count the race, not a failure.
            ++stats_.populateRaces;
        } else {
            warn("trace cache: cannot move %s into place: %s",
                 tmp.c_str(), ec.message().c_str());
            ++stats_.storeFailures;
        }
    }
    return kernels;
}

} // namespace crisp::traceio
