/**
 * @file
 * Fig 14: TAP on the shared L2 vs MiG bank partitioning vs MPS, RTX 3070.
 *
 * All pairs run under inter-SM (MPS-style) even SM splits; the schemes
 * differ only in the L2: fully shared (MPS), bank-partitioned (MiG), and
 * TAP set-partitioned. The paper finds TAP outperforms MiG and matches the
 * MPS baseline — the workload pairs are bandwidth-bound, not
 * capacity-bound, and MiG's restricted bank set throttles L2 bandwidth.
 */

#include "bench_util.hpp"

using namespace crisp;
using namespace crisp::bench;

int
main()
{
    setVerbose(false);
    header("Fig 14", "TAP vs MiG vs MPS (RTX 3070)");
    const GpuConfig gpu_cfg = GpuConfig::rtx3070();
    const std::vector<std::string> scenes = {"SPH", "SPL", "PT"};
    const std::vector<std::string> computes = {"VIO", "HOLO", "NN"};

    Table t({"pair", "MPS", "MiG", "TAP", "MiG vs MPS", "TAP vs MPS"});
    std::vector<double> mig_rel;
    std::vector<double> tap_rel;
    uint64_t tap_windows = 0;
    for (const auto &scene : scenes) {
        for (const auto &cmp : computes) {
            const Cycle mps =
                runPair(scene, cmp, gpu_cfg, PartitionScheme::Mps, 480, 270)
                    .makespan;
            const Cycle mig =
                runPair(scene, cmp, gpu_cfg, PartitionScheme::Mig, 480, 270)
                    .makespan;
            // Trace the TAP runs: the controller emits a TapWindow event
            // per window boundary where it re-evaluates the set split.
            telemetry::TelemetrySink sink;
            const Cycle tap =
                runPair(scene, cmp, gpu_cfg, PartitionScheme::MpsTap, 480, 270,
                        [&](Gpu &gpu, StreamId, StreamId) {
                            gpu.setTelemetry(&sink);
                        })
                    .makespan;
            tap_windows += sink.count(telemetry::EventKind::TapWindow);
            const double mig_speed = static_cast<double>(mps) / mig;
            const double tap_speed = static_cast<double>(mps) / tap;
            mig_rel.push_back(mig_speed);
            tap_rel.push_back(tap_speed);
            t.addRow({scene + "+" + cmp, std::to_string(mps),
                      std::to_string(mig), std::to_string(tap),
                      Table::num(mig_speed, 2), Table::num(tap_speed, 2)});
        }
    }
    t.emit("fig14_tap.csv");

    const double mig_gm = geomean(mig_rel);
    const double tap_gm = geomean(tap_rel);
    std::printf("geomean vs MPS: MiG %.2fx, TAP %.2fx\n", mig_gm, tap_gm);
    std::printf("TAP window decisions traced: %llu\n",
                static_cast<unsigned long long>(tap_windows));
    std::printf("paper: TAP outperforms MiG and matches MPS — the pairs "
                "are bandwidth-bound, not capacity-bound.\n");
    return tap_gm >= mig_gm ? 0 : 1;
}
