/**
 * @file
 * Fig 13: realtime occupancy under Warped-Slicer for the PT + VIO pair
 * (Jetson Orin). The paper shows the dynamic partition favouring the
 * rendering shaders and occupancy dips where the chosen quota is limited
 * by registers rather than thread slots.
 *
 * Sampling runs through the telemetry subsystem's counter time-series
 * (occ.graphics / occ.compute columns) instead of a bespoke controller.
 */

#include "bench_util.hpp"

using namespace crisp;
using namespace crisp::bench;

int
main()
{
    setVerbose(false);
    header("Fig 13", "Warped-Slicer realtime occupancy, PT + VIO (Orin)");

    telemetry::TelemetrySink sink = makeSamplingSink(500);
    const PairResult result = runPair(
        "PT", "VIO", GpuConfig::jetsonOrin(), PartitionScheme::FgSlicer,
        480, 270,
        [&](Gpu &gpu, StreamId, StreamId) {
            gpu.setTelemetry(&sink);
        });

    Table t({"cycle", "graphics occ%", "compute occ%", "total occ%"});
    const auto &cycles = sink.series().cycles();
    const auto &gfx = sink.series().values("occ.graphics");
    const auto &cmp = sink.series().values("occ.compute");
    const size_t step = std::max<size_t>(1, cycles.size() / 40);
    double peak_total = 0.0;
    double gfx_sum = 0.0;
    double cmp_sum = 0.0;
    for (size_t i = 0; i < cycles.size(); i += step) {
        t.addRow({std::to_string(cycles[i]), Table::num(100 * gfx[i], 1),
                  Table::num(100 * cmp[i], 1),
                  Table::num(100 * (gfx[i] + cmp[i]), 1)});
    }
    for (size_t i = 0; i < cycles.size(); ++i) {
        peak_total = std::max(peak_total, gfx[i] + cmp[i]);
        gfx_sum += gfx[i];
        cmp_sum += cmp[i];
    }
    t.emit("fig13_occupancy.csv");

    std::printf("makespan: %llu cycles (graphics done at %llu, compute at "
                "%llu)\n",
                static_cast<unsigned long long>(result.makespan),
                static_cast<unsigned long long>(result.gfxFinish),
                static_cast<unsigned long long>(result.cmpFinish));
    std::printf("mean occupancy: graphics %.1f%%, compute %.1f%% over the "
                "sampled window\n",
                100 * gfx_sum / cycles.size(),
                100 * cmp_sum / cycles.size());
    std::printf("peak combined occupancy: %.1f%% — dips below 100%% are "
                "register-limited CTA residency (paper: \"the low "
                "occupancy regions are limited by registers\")\n",
                100 * peak_total);
    std::printf("repartition decisions traced: %llu\n",
                static_cast<unsigned long long>(
                    sink.count(telemetry::EventKind::Repartition)));
    return cycles.empty() ? 1 : 0;
}
