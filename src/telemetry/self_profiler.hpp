#ifndef CRISP_TELEMETRY_SELF_PROFILER_HPP
#define CRISP_TELEMETRY_SELF_PROFILER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace crisp
{
namespace telemetry
{

/** Simulator components wall-clock time is attributed to. */
enum class Component : uint8_t
{
    CtaScheduler = 0,  ///< Gpu::issueCtas + kernel promotion.
    SmIssue,           ///< Gpu::stepSms: SM steps and their merge.
    L1Ldst,            ///< Gpu::memoryPhase: L1 probes, MSHRs, retries.
    L2,                ///< L2 bank service (tag probes, MSHR merging).
    Icnt,              ///< Interconnect response delivery.
    Dram,              ///< DRAM fill completion.
    Raster,            ///< Functional rasterization at submit time.
    Controllers,       ///< GpuController hooks (partitioning, sampling).
    NumComponents
};

/** Short stable name for a component ("sm-issue", ...). */
const char *componentName(Component c);

/**
 * Wall-clock self-profiler: attributes simulation time to model
 * components through RAII scopes.
 *
 * Scopes nest; a nested scope's time is *excluded* from its parent, so the
 * rendered table is a true exclusive breakdown (per "Parallelizing a modern
 * GPU simulator": knowing where simulator time goes per component is the
 * prerequisite for making it fast). Scope entry/exit costs two
 * steady_clock reads, which is why profiling is opt-in and every
 * instrumented site is gated on a null profiler pointer.
 */
class SelfProfiler
{
  public:
    class Scope
    {
      public:
        Scope(SelfProfiler *profiler, Component c);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SelfProfiler *profiler_;
        Component component_;
        std::chrono::steady_clock::time_point start_;
        double childNs_ = 0.0;   ///< Time claimed by nested scopes.
        Scope *parent_ = nullptr;
    };

    /** Exclusive nanoseconds attributed to @p c so far. */
    double nanos(Component c) const
    {
        return nanos_[static_cast<size_t>(c)];
    }

    /** Total nanoseconds across all components. */
    double totalNanos() const;

    /**
     * Render the breakdown as a column-aligned table: component, seconds,
     * share of the total, and (when @p cycles is non-zero) the attributed
     * nanoseconds per simulated cycle.
     */
    std::string render(uint64_t cycles = 0) const;

    void reset();

  private:
    friend class Scope;

    std::array<double, static_cast<size_t>(Component::NumComponents)>
        nanos_{};
    Scope *current_ = nullptr;
};

} // namespace telemetry
} // namespace crisp

#endif // CRISP_TELEMETRY_SELF_PROFILER_HPP
