#include "partition/scheme.hpp"

#include <array>
#include <utility>

#include "common/logging.hpp"

namespace crisp
{

namespace
{

constexpr std::array<std::pair<PartitionScheme, const char *>, 6> kSchemes{{
    {PartitionScheme::Exhaustive, "exhaustive"},
    {PartitionScheme::Mps, "mps"},
    {PartitionScheme::Mig, "mig"},
    {PartitionScheme::Fg, "fg"},
    {PartitionScheme::FgSlicer, "fg-slicer"},
    {PartitionScheme::MpsTap, "mps-tap"},
}};

} // namespace

const char *
partitionSchemeName(PartitionScheme scheme)
{
    for (const auto &[s, name] : kSchemes) {
        if (s == scheme) {
            return name;
        }
    }
    panic("unknown partition scheme %d", static_cast<int>(scheme));
}

std::string
partitionSchemeNames()
{
    std::string all;
    for (const auto &[s, name] : kSchemes) {
        all += all.empty() ? "" : "|";
        all += name;
    }
    return all;
}

bool
parsePartitionScheme(std::string_view name, PartitionScheme &out)
{
    for (const auto &[s, n] : kSchemes) {
        if (name == n) {
            out = s;
            return true;
        }
    }
    return false;
}

SchemeControllers
applyPartitionScheme(Gpu &gpu, PartitionScheme scheme, StreamId gfx,
                     StreamId cmp)
{
    fatal_if(scheme != PartitionScheme::Exhaustive &&
                 (gfx == kInvalidStream || cmp == kInvalidStream),
             "partition scheme %s needs a graphics and a compute stream",
             partitionSchemeName(scheme));
    PartitionConfig part;
    switch (scheme) {
      case PartitionScheme::Exhaustive:
        break;
      case PartitionScheme::Mps:
      case PartitionScheme::MpsTap:
        part.policy = PartitionPolicy::Mps;
        break;
      case PartitionScheme::Mig:
        part.policy = PartitionPolicy::Mig;
        break;
      case PartitionScheme::Fg:
      case PartitionScheme::FgSlicer:
        part.policy = PartitionPolicy::FineGrained;
        part.priorityStream = gfx;
        break;
    }
    gpu.setPartition(part);

    SchemeControllers controllers;
    if (scheme == PartitionScheme::FgSlicer) {
        WarpedSlicerConfig wc;
        wc.streamA = gfx;
        wc.streamB = cmp;
        controllers.slicer = std::make_unique<WarpedSlicer>(wc);
        gpu.addController(controllers.slicer.get());
    }
    if (scheme == PartitionScheme::MpsTap) {
        TapConfig tc;
        tc.gfxStream = gfx;
        tc.computeStream = cmp;
        controllers.tap = std::make_unique<TapController>(tc, gpu);
        gpu.addController(controllers.tap.get());
    }
    return controllers;
}

} // namespace crisp
