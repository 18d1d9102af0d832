/**
 * @file
 * Fig 15: normalized L2 composition under TAP for Sponza PBR + Hologram.
 *
 * HOLO barely touches memory, so TAP allocates nearly all sets (and thus
 * lines) to the rendering stream; pipeline and texture data share the
 * rendering allocation without further partitioning.
 */

#include "bench_util.hpp"

using namespace crisp;
using namespace crisp::bench;

int
main()
{
    setVerbose(false);
    header("Fig 15", "L2 composition under TAP: SPH + HOLO (RTX 3070)");

    telemetry::TelemetrySink sink = makeSamplingSink(2000);
    const PairResult result = runPair(
        "SPH", "HOLO", GpuConfig::rtx3070(), PartitionScheme::MpsTap, 480, 270,
        [&](Gpu &gpu, StreamId, StreamId) {
            gpu.setTelemetry(&sink);
        });

    Table t({"cycle", "texture%", "pipeline%", "compute%"});
    const auto &series = sink.series();
    const size_t step = std::max<size_t>(1, series.rows() / 20);
    for (size_t i = 0; i < series.rows(); i += step) {
        t.addRow({std::to_string(series.cycles()[i]),
                  Table::num(100 * series.values("l2.comp.texture")[i], 1),
                  Table::num(100 * series.values("l2.comp.pipeline")[i], 1),
                  Table::num(100 * series.values("l2.comp.compute")[i], 1)});
    }
    t.emit("fig15_tap_l2.csv");

    const double tex = seriesMean(series, "l2.comp.texture");
    const double pipe = seriesMean(series, "l2.comp.pipeline");
    const double cmp = seriesMean(series, "l2.comp.compute");
    std::printf("mean shares: texture %.0f%%, pipeline %.0f%%, compute "
                "%.0f%%\n", 100 * tex, 100 * pipe, 100 * cmp);
    std::printf("TAP window decisions traced: %llu\n",
                static_cast<unsigned long long>(
                    sink.count(telemetry::EventKind::TapWindow)));
    std::printf("paper: TAP allocates most cache lines to rendering "
                "because HOLO is compute-bound; pipeline and texture data "
                "are not partitioned from each other.\n");
    std::printf("makespan %llu cycles\n",
                static_cast<unsigned long long>(result.makespan));
    return (tex + pipe) > cmp ? 0 : 1;
}
