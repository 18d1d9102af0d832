#include "telemetry/self_profiler.hpp"

#include "common/table.hpp"

namespace crisp
{
namespace telemetry
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::CtaScheduler: return "cta-scheduler";
      case Component::SmIssue: return "sm-issue";
      case Component::L1Ldst: return "l1-ldst";
      case Component::L2: return "l2";
      case Component::Icnt: return "icnt";
      case Component::Dram: return "dram";
      case Component::Raster: return "raster";
      case Component::Controllers: return "controllers";
      default: return "?";
    }
}

SelfProfiler::Scope::Scope(SelfProfiler *profiler, Component c)
    : profiler_(profiler), component_(c)
{
    if (profiler_) {
        start_ = std::chrono::steady_clock::now();
        parent_ = profiler_->current_;
        profiler_->current_ = this;
    }
}

SelfProfiler::Scope::~Scope()
{
    if (!profiler_) {
        return;
    }
    const double inclusive_ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start_)
            .count();
    profiler_->nanos_[static_cast<size_t>(component_)] +=
        inclusive_ns - childNs_;
    profiler_->current_ = parent_;
    if (parent_) {
        parent_->childNs_ += inclusive_ns;
    }
}

double
SelfProfiler::totalNanos() const
{
    double total = 0.0;
    for (double ns : nanos_) {
        total += ns;
    }
    return total;
}

std::string
SelfProfiler::render(uint64_t cycles) const
{
    const double total = totalNanos();
    Table t(cycles > 0
                ? std::vector<std::string>{"component", "seconds", "share%",
                                           "ns/cycle"}
                : std::vector<std::string>{"component", "seconds",
                                           "share%"});
    for (size_t i = 0; i < nanos_.size(); ++i) {
        const double ns = nanos_[i];
        std::vector<std::string> row = {
            componentName(static_cast<Component>(i)),
            Table::num(ns / 1e9, 3),
            Table::num(total > 0.0 ? 100.0 * ns / total : 0.0, 1)};
        if (cycles > 0) {
            row.push_back(Table::num(ns / static_cast<double>(cycles), 1));
        }
        t.addRow(std::move(row));
    }
    return t.toText();
}

void
SelfProfiler::reset()
{
    nanos_.fill(0.0);
    current_ = nullptr;
}

} // namespace telemetry
} // namespace crisp
