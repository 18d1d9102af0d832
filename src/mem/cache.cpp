#include "mem/cache.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace crisp
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2Of(uint64_t v)
{
    uint32_t s = 0;
    while ((1ull << s) < v) {
        ++s;
    }
    return s;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheGeometry &geom) : geom_(geom)
{
    fatal_if(geom_.lineBytes == 0 || geom_.ways == 0,
             "invalid cache geometry");
    fatal_if(geom_.sizeBytes % (geom_.lineBytes * geom_.ways) != 0,
             "cache size %llu not divisible into %u-way sets",
             static_cast<unsigned long long>(geom_.sizeBytes), geom_.ways);
    numSets_ = geom_.numSets();
    ways_ = geom_.ways;
    pow2Line_ = isPow2(geom_.lineBytes);
    pow2Sets_ = isPow2(numSets_);
    lineShift_ = pow2Line_ ? log2Of(geom_.lineBytes) : 0;
    setMask_ = pow2Sets_ ? numSets_ - 1 : 0;
    const size_t n = static_cast<size_t>(numSets_) * ways_;
    tags_.assign(n, 0);
    lastUse_.assign(n, 0);
    flags_.assign(n, 0);
    validSectors_.assign(n, 0);
    streams_.assign(n, kInvalidStream);
    classes_.assign(n, DataClass::Unknown);
}

uint32_t
SetAssocCache::mapSet(Addr line, StreamId stream) const
{
    // Simple xor-fold hash decorrelates strided accesses across sets.
    const Addr blk = pow2Line_ ? line >> lineShift_ : line / geom_.lineBytes;
    const Addr folded = blk ^ (blk >> 13);
    uint32_t set = pow2Sets_
        ? static_cast<uint32_t>(folded) & setMask_
        : static_cast<uint32_t>(folded % numSets_);
    if (!windows_.empty()) {
        if (const SetWindow *w = windowFor(stream)) {
            return w->first + set % w->count;
        }
    }
    return set;
}

const SetAssocCache::SetWindow *
SetAssocCache::windowFor(StreamId stream) const
{
    for (const auto &w : windows_) {
        if (w.stream == stream && w.count > 0) {
            return &w;
        }
    }
    return nullptr;
}

uint32_t
SetAssocCache::findWayIndex(uint32_t set, Addr tag) const
{
    const uint32_t base = set * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if ((flags_[base + w] & kValid) && tags_[base + w] == tag) {
            return base + w;
        }
    }
    return kNoWay;
}

uint32_t
SetAssocCache::lruPosition(uint32_t set, uint32_t idx) const
{
    // Count lines in the set more recently used than this one.
    const uint32_t base = set * ways_;
    const uint64_t mine = lastUse_[idx];
    uint32_t pos = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        const uint32_t i = base + w;
        if (i != idx && (flags_[i] & kValid) && lastUse_[i] > mine) {
            ++pos;
        }
    }
    return pos;
}

uint32_t
SetAssocCache::pickVictim(uint32_t set, bool &evicted, Addr &evicted_line,
                          bool &evicted_dirty,
                          uint8_t &evicted_sectors) const
{
    const uint32_t base = set * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (!(flags_[base + w] & kValid)) {
            return base + w;
        }
    }
    uint32_t victim = base;
    for (uint32_t w = 1; w < ways_; ++w) {
        if (lastUse_[base + w] < lastUse_[victim]) {
            victim = base + w;
        }
    }
    evicted = true;
    evicted_line = tags_[victim] * geom_.lineBytes;
    evicted_dirty = (flags_[victim] & kDirty) != 0;
    evicted_sectors = validSectors_[victim];
    return victim;
}

void
SetAssocCache::installLine(uint32_t idx, Addr tag, bool write,
                           StreamId stream, DataClass cls,
                           uint8_t sector_bit)
{
    flags_[idx] = static_cast<uint8_t>(kValid | (write ? kDirty : 0));
    tags_[idx] = tag;
    lastUse_[idx] = ++useCounter_;
    streams_[idx] = stream;
    classes_[idx] = cls;
    validSectors_[idx] = sector_bit;
}

void
SetAssocCache::clearLine(uint32_t idx)
{
    flags_[idx] = 0;
    tags_[idx] = 0;
    lastUse_[idx] = 0;
    streams_[idx] = kInvalidStream;
    classes_[idx] = DataClass::Unknown;
    validSectors_[idx] = 0;
}

CacheAccessResult
SetAssocCache::access(Addr line, bool write, StreamId stream, DataClass cls,
                      bool allocate_on_miss)
{
    const bool sectored = geom_.sectorBytes != 0;
    uint8_t sector_bit = 0xff;  // unsectored: every sector at once
    if (sectored) {
        panic_if(line % geom_.sectorBytes != 0,
                 "unaligned sector address %llx",
                 static_cast<unsigned long long>(line));
        const uint32_t sector = static_cast<uint32_t>(
            line % geom_.lineBytes / geom_.sectorBytes);
        sector_bit = static_cast<uint8_t>(1u << sector);
        line -= line % geom_.lineBytes;
    } else {
        panic_if(pow2Line_ ? (line & ((Addr(1) << lineShift_) - 1)) != 0
                           : line % geom_.lineBytes != 0,
                 "unaligned line address %llx",
                 static_cast<unsigned long long>(line));
    }
    ++accesses_;
    const Addr tag = pow2Line_ ? line >> lineShift_ : line / geom_.lineBytes;
    const uint32_t set = mapSet(line, stream);

    CacheAccessResult res;
    const uint32_t hit_idx = findWayIndex(set, tag);
    if (hit_idx != kNoWay) {
        if (sectored && !(validSectors_[hit_idx] & sector_bit)) {
            // Tag hit, sector miss: fetch just this sector, no eviction.
            ++sectorMisses_;
            res.sectorMiss = true;
            if (allocate_on_miss) {
                validSectors_[hit_idx] |= sector_bit;
                lastUse_[hit_idx] = ++useCounter_;
                if (write) {
                    flags_[hit_idx] |= kDirty;
                }
            }
            return res;
        }
        ++hits_;
        res.hit = true;
        if (reportHitLruPos_) {
            res.hitLruPos = lruPosition(set, hit_idx);
        }
        lastUse_[hit_idx] = ++useCounter_;
        if (write) {
            flags_[hit_idx] |= kDirty;
        }
        // A line can be promoted between classes (e.g. pipeline data later
        // reread as compute); keep the original class, matching how the
        // paper attributes a line to its producer.
        return res;
    }

    if (!allocate_on_miss) {
        return res;
    }

    // Choose a victim: first invalid way, otherwise true LRU.
    const uint32_t victim =
        pickVictim(set, res.evicted, res.evictedLine, res.evictedDirty,
                   res.evictedValidSectors);
    installLine(victim, tag, write, stream, cls, sector_bit);
    return res;
}

CacheFillResult
SetAssocCache::fill(Addr line, bool write, StreamId stream, DataClass cls)
{
    const bool sectored = geom_.sectorBytes != 0;
    uint8_t sector_bit = 0xff;  // unsectored: every sector at once
    if (sectored) {
        panic_if(line % geom_.sectorBytes != 0,
                 "unaligned sector address %llx",
                 static_cast<unsigned long long>(line));
        const uint32_t sector = static_cast<uint32_t>(
            line % geom_.lineBytes / geom_.sectorBytes);
        sector_bit = static_cast<uint8_t>(1u << sector);
        line -= line % geom_.lineBytes;
    } else {
        panic_if(line % geom_.lineBytes != 0, "unaligned line address %llx",
                 static_cast<unsigned long long>(line));
    }
    ++fills_;
    const Addr tag = pow2Line_ ? line >> lineShift_ : line / geom_.lineBytes;
    const uint32_t set = mapSet(line, stream);

    CacheFillResult res;
    const uint32_t resident = findWayIndex(set, tag);
    if (resident != kNoWay) {
        // Tag installed at miss time (or by a racing access) is still
        // resident: validate the sector in place. Recency belongs to the
        // demand access, so LRU is deliberately left alone.
        res.wasPresent = true;
        validSectors_[resident] |= sector_bit;
        if (write) {
            flags_[resident] |= kDirty;
        }
        return res;
    }

    // Interim eviction: the tag was displaced between miss and fill.
    // Re-install it, displacing at most one victim, reported once.
    const uint32_t victim =
        pickVictim(set, res.evicted, res.evictedLine, res.evictedDirty,
                   res.evictedValidSectors);
    installLine(victim, tag, write, stream, cls, sector_bit);
    return res;
}

bool
SetAssocCache::probe(Addr line, StreamId stream) const
{
    const Addr tag = pow2Line_ ? line >> lineShift_ : line / geom_.lineBytes;
    return findWayIndex(mapSet(line, stream), tag) != kNoWay;
}

void
SetAssocCache::invalidateAll()
{
    for (size_t i = 0; i < flags_.size(); ++i) {
        clearLine(static_cast<uint32_t>(i));
    }
}

void
SetAssocCache::invalidateStream(StreamId stream)
{
    for (size_t i = 0; i < flags_.size(); ++i) {
        if ((flags_[i] & kValid) && streams_[i] == stream) {
            clearLine(static_cast<uint32_t>(i));
        }
    }
}

void
SetAssocCache::setStreamSetWindow(StreamId stream, uint32_t first,
                                  uint32_t count)
{
    panic_if(first + count > numSets_,
             "set window [%u, %u) exceeds %u sets", first, first + count,
             numSets_);
    for (auto &w : windows_) {
        if (w.stream == stream) {
            w.first = first;
            w.count = count;
            return;
        }
    }
    windows_.push_back({stream, first, count});
}

void
SetAssocCache::clearSetWindows()
{
    windows_.clear();
}

CacheComposition
SetAssocCache::composition() const
{
    CacheComposition comp;
    comp.totalLines = flags_.size();
    for (size_t i = 0; i < flags_.size(); ++i) {
        if (!(flags_[i] & kValid)) {
            continue;
        }
        ++comp.validLines;
        ++comp.byClass[static_cast<size_t>(classes_[i])];
        if (const SetWindow *w = windowFor(streams_[i])) {
            const uint32_t set = static_cast<uint32_t>(i / ways_);
            if (set < w->first || set >= w->first + w->count) {
                ++comp.strandedLines;
            }
        }
    }
    return comp;
}

} // namespace crisp
