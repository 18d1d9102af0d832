#ifndef CRISP_TELEMETRY_SINK_HPP
#define CRISP_TELEMETRY_SINK_HPP

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/event.hpp"
#include "telemetry/self_profiler.hpp"

namespace crisp
{

class Table;

namespace telemetry
{

/** Knobs of one attached sink. */
struct TelemetryConfig
{
    /**
     * Event ring capacity in records. The ring keeps the *newest* events:
     * once full, each emit overwrites the oldest record and bumps the
     * dropped count — a hang report wants the last events before the
     * stall, not the first events of the run.
     */
    size_t eventCapacity = 1 << 16;

    /**
     * Counter sampling period in cycles; 0 disables the time-series
     * sampler. The cadence matches the bench samplers this subsystem
     * replaced: the first sample lands on cycle 1, so a run of C cycles
     * yields exactly ceil(C / sampleInterval) samples.
     */
    Cycle sampleInterval = 0;

    /** Enable the wall-clock self-profiler (adds clock reads per scope). */
    bool selfProfile = false;
};

/**
 * Columnar counter time-series.
 *
 * One row per sample; columns are interned by name and stored as separate
 * vectors (columnar) so a bench can hand a whole series column to a table
 * or a correlation metric without restructuring. Columns added after the
 * first row are backfilled with zeros.
 */
class CounterSeries
{
  public:
    /** Intern a column, returning its index (idempotent per name). */
    uint32_t column(const std::string &name);

    /** True when @p name was interned. */
    bool hasColumn(const std::string &name) const;

    /** Start a new sample row at @p cycle; new cells default to 0. */
    void beginRow(Cycle cycle);

    /** Set a cell of the current row (fatal without a beginRow). */
    void set(uint32_t column_index, double value);

    size_t rows() const { return cycles_.size(); }
    const std::vector<Cycle> &cycles() const { return cycles_; }

    /** All values of one column, by index or name (fatal when missing). */
    const std::vector<double> &values(uint32_t column_index) const;
    const std::vector<double> &values(const std::string &name) const;

    const std::vector<std::string> &columnNames() const { return names_; }

    /**
     * Render the series as a table (cycle + every column), sampling every
     * @p row_step rows — the generic CSV exporter for the bench suite.
     */
    Table toTable(size_t row_step = 1, int precision = 4) const;

  private:
    std::map<std::string, uint32_t> index_;
    std::vector<std::string> names_;
    std::vector<Cycle> cycles_;
    std::vector<std::vector<double>> columns_;
};

/**
 * Shared telemetry sink: a preallocated event ring, the counter
 * time-series, a name intern table, and the optional self-profiler.
 *
 * Producers (SMs, L2, DRAM, pipeline, partition controllers) hold a raw
 * pointer that is null when telemetry is disabled, so a disabled sink
 * costs exactly one branch per emit site.
 */
class TelemetrySink
{
  public:
    explicit TelemetrySink(const TelemetryConfig &cfg = {});

    const TelemetryConfig &config() const { return cfg_; }

    /** Record one event (ring push; overwrites the oldest when full). */
    void
    emit(const Event &e)
    {
        ring_[static_cast<size_t>(emitted_ % ring_.size())] = e;
        ++emitted_;
        ++counts_[static_cast<size_t>(e.kind)];
    }

    /** Events ever emitted (including overwritten ones). */
    uint64_t emitted() const { return emitted_; }

    /** Events of one kind ever emitted (robust to ring wraparound). */
    uint64_t
    count(EventKind kind) const
    {
        return counts_[static_cast<size_t>(kind)];
    }

    /** Events lost to ring wraparound. */
    uint64_t
    dropped() const
    {
        return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
    }

    /** Retained events, oldest first (linearized ring copy). */
    std::vector<Event> events() const;

    /** The newest @p count retained events, oldest first. */
    std::vector<Event> lastEvents(size_t count) const;

    /** Intern @p name, returning a stable key for Event payloads. */
    uint32_t internName(const std::string &name);

    /** Resolve an interned key ("?" for unknown keys). */
    const std::string &name(uint32_t key) const;

    /** Register a stream's name (exporters map streams to processes). */
    void registerStream(StreamId id, const std::string &name);
    const std::map<StreamId, std::string> &streams() const
    {
        return streams_;
    }

    CounterSeries &series() { return series_; }
    const CounterSeries &series() const { return series_; }

    SelfProfiler &profiler() { return profiler_; }
    const SelfProfiler &profiler() const { return profiler_; }

    /** One-line human rendering of an event (hang reports, debugging). */
    std::string describe(const Event &e) const;

  private:
    TelemetryConfig cfg_;
    std::vector<Event> ring_;
    uint64_t emitted_ = 0;
    std::array<uint64_t, static_cast<size_t>(EventKind::NumKinds)>
        counts_{};
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> nameIndex_;
    std::map<StreamId, std::string> streams_;
    CounterSeries series_;
    SelfProfiler profiler_;
};

} // namespace telemetry
} // namespace crisp

#endif // CRISP_TELEMETRY_SINK_HPP
