#include "common/stats.hpp"

#include "common/logging.hpp"

namespace crisp
{

const char *
dataClassName(DataClass c)
{
    switch (c) {
      case DataClass::Unknown: return "unknown";
      case DataClass::Texture: return "texture";
      case DataClass::Pipeline: return "pipeline";
      case DataClass::Compute: return "compute";
      default: return "invalid";
    }
}

Histogram::Histogram(uint64_t max_value)
    : maxValue_(max_value), buckets_(max_value + 1, 0)
{
}

void
Histogram::add(uint64_t value, uint64_t weight)
{
    const uint64_t b = value > maxValue_ ? maxValue_ : value;
    buckets_[b] += weight;
    samples_ += weight;
    weightedSum_ += value * weight;
}

uint64_t
Histogram::count(uint64_t bucket) const
{
    panic_if(bucket > maxValue_, "histogram bucket %llu out of range",
             static_cast<unsigned long long>(bucket));
    return buckets_[bucket];
}

double
Histogram::mean() const
{
    return samples_ == 0
        ? 0.0
        : static_cast<double>(weightedSum_) / static_cast<double>(samples_);
}

uint64_t
Histogram::minValue() const
{
    for (uint64_t b = 0; b <= maxValue_; ++b) {
        if (buckets_[b] > 0) {
            return b;
        }
    }
    return 0;
}

uint64_t
Histogram::maxValue() const
{
    for (uint64_t b = maxValue_ + 1; b-- > 0;) {
        if (buckets_[b] > 0) {
            return b;
        }
    }
    return 0;
}

uint64_t
Histogram::modeBucket() const
{
    uint64_t best = 0;
    uint64_t best_count = 0;
    for (uint64_t b = 0; b <= maxValue_; ++b) {
        if (buckets_[b] > best_count) {
            best_count = buckets_[b];
            best = b;
        }
    }
    return best;
}

void
Histogram::merge(const Histogram &other)
{
    panic_if(other.maxValue_ != maxValue_,
             "merging histograms with different ranges");
    for (uint64_t b = 0; b <= maxValue_; ++b) {
        buckets_[b] += other.buckets_[b];
    }
    samples_ += other.samples_;
    weightedSum_ += other.weightedSum_;
}

void
StreamStats::absorb(const StreamStats &delta)
{
    cycles += delta.cycles;
    instructions += delta.instructions;
    warpsLaunched += delta.warpsLaunched;
    ctasLaunched += delta.ctasLaunched;
    kernelsCompleted += delta.kernelsCompleted;
    l1Accesses += delta.l1Accesses;
    l1Hits += delta.l1Hits;
    l1MshrMerges += delta.l1MshrMerges;
    l1TexAccesses += delta.l1TexAccesses;
    l2Accesses += delta.l2Accesses;
    l2Hits += delta.l2Hits;
    l2MshrMerges += delta.l2MshrMerges;
    dramReads += delta.dramReads;
    dramWrites += delta.dramWrites;
    smemAccesses += delta.smemAccesses;
    smemBankConflicts += delta.smemBankConflicts;
    remoteAccesses += delta.remoteAccesses;
    remoteResponses += delta.remoteResponses;
    pageMigrations += delta.pageMigrations;
    // 0 means "unset" on both sides, so the merged mark is the minimum
    // over *set* values: blocks merge in SM order, not time order, and a
    // later block can carry the earlier first cycle. (Taking the first
    // non-zero delta here used to truncate the ipc() window.)
    if (delta.firstCycle != 0 &&
        (firstCycle == 0 || delta.firstCycle < firstCycle)) {
        firstCycle = delta.firstCycle;
    }
    if (delta.lastCycle > lastCycle) {
        lastCycle = delta.lastCycle;
    }
}

double
StreamStats::l1HitRate() const
{
    return l1Accesses == 0
        ? 0.0
        : static_cast<double>(l1Hits) / static_cast<double>(l1Accesses);
}

double
StreamStats::l2HitRate() const
{
    return l2Accesses == 0
        ? 0.0
        : static_cast<double>(l2Hits) / static_cast<double>(l2Accesses);
}

double
StreamStats::ipc() const
{
    const uint64_t active = lastCycle > firstCycle ? lastCycle - firstCycle : 0;
    return active == 0
        ? 0.0
        : static_cast<double>(instructions) / static_cast<double>(active);
}

StreamStats &
StatsRegistry::streamSlow(StreamId id)
{
    StreamStats &st = streams_[id];
    // Cap the dense index so a hostile id cannot balloon it; ids past the
    // cap still work, just through the map.
    constexpr StreamId kMaxIndexed = 4096;
    if (id < kMaxIndexed) {
        if (streamIndex_.size() <= id) {
            streamIndex_.resize(id + 1, nullptr);
        }
        streamIndex_[id] = &st;
    }
    return st;
}

const StreamStats *
StatsRegistry::findStream(StreamId id) const
{
    auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : &it->second;
}

const std::map<StreamId, StreamStats> &
StatsRegistry::allStreams() const
{
    return streams_;
}

void
StatsRegistry::clear()
{
    streams_.clear();
    streamIndex_.clear();
}

void
StatsRegistry::merge(const StatsRegistry &other)
{
    for (const auto &[id, st] : other.streams_) {
        stream(id).absorb(st);
    }
}

} // namespace crisp
