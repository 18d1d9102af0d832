#ifndef CRISP_PARTITION_SCHEME_HPP
#define CRISP_PARTITION_SCHEME_HPP

#include <memory>
#include <string>
#include <string_view>

#include "gpu/gpu.hpp"
#include "partition/tap.hpp"
#include "partition/warped_slicer.hpp"

namespace crisp
{

/**
 * The partitioning schemes of the paper's case studies (§III-A, Fig 4),
 * between one graphics and one compute stream. Every stream gets the
 * even default share.
 */
enum class PartitionScheme
{
    Exhaustive,  ///< "exhaustive": no partition, streams share everything.
    Mps,         ///< "mps": inter-SM split, shared L2.
    Mig,         ///< "mig": inter-SM split plus bank-partitioned L2.
    Fg,          ///< "fg": intra-SM quotas, graphics issues first.
    FgSlicer,    ///< "fg-slicer": fg with Warped-Slicer dynamic quotas.
    MpsTap,      ///< "mps-tap": mps with TAP set-partitioned L2.
};

/** The scheme's name: exhaustive|mps|mig|fg|fg-slicer|mps-tap. */
const char *partitionSchemeName(PartitionScheme scheme);

/** Every scheme name joined by '|', for diagnostics. */
std::string partitionSchemeNames();

/** Look up a scheme by name; false if @p name is none of them. */
bool parsePartitionScheme(std::string_view name, PartitionScheme &out);

/** The controllers a scheme attached. They must outlive the run. */
struct SchemeControllers
{
    std::unique_ptr<WarpedSlicer> slicer;
    std::unique_ptr<TapController> tap;
};

/**
 * Partition @p gpu between graphics stream @p gfx and compute stream
 * @p cmp: setPartition, then the Warped-Slicer (fg-slicer), then TAP
 * (mps-tap). Every scheme but exhaustive needs both streams.
 */
SchemeControllers applyPartitionScheme(Gpu &gpu, PartitionScheme scheme,
                                       StreamId gfx, StreamId cmp);

} // namespace crisp

#endif // CRISP_PARTITION_SCHEME_HPP
