/**
 * @file
 * Fig 12: Warped-Slicer on intra-SM partitioning, Jetson Orin.
 *
 * All rendering x compute pairs run under three schemes — MPS (inter-SM
 * even), EVEN (intra-SM static even quotas) and Dynamic (intra-SM with
 * Warped-Slicer) — and system throughput (STP = sum of per-stream
 * alone-time / co-run-time) is normalized to MPS. The paper finds EVEN
 * fastest overall: VIO's many small kernels cannot amortize the sampling
 * overhead, HOLO contends for FP units once truly shared, and NN benefits
 * most because its low-occupancy shared-memory kernels leave resources the
 * rendering pipeline can exploit when sharing the SM.
 */

#include "bench_util.hpp"

using namespace crisp;
using namespace crisp::bench;

int
main()
{
    setVerbose(false);
    header("Fig 12", "Warped-Slicer vs MPS vs EVEN (Jetson Orin)");
    const GpuConfig gpu_cfg = GpuConfig::jetsonOrin();
    const uint32_t w = 640;
    const uint32_t h = 360;
    const std::vector<std::string> scenes = {"SPH", "PL", "MT"};
    const std::vector<std::string> computes = {"VIO", "HOLO", "NN"};
    const std::vector<PartitionScheme> schemes = {
        PartitionScheme::Mps, PartitionScheme::Fg,
        PartitionScheme::FgSlicer};

    // Alone-run baselines for the STP metric.
    std::map<std::string, double> gfx_alone;
    std::map<std::string, double> cmp_alone;
    for (const auto &scene : scenes) {
        gfx_alone[scene] = static_cast<double>(
            runGraphicsAlone(scene, gpu_cfg, w, h));
    }
    for (const auto &cmp : computes) {
        cmp_alone[cmp] =
            static_cast<double>(runComputeAlone(cmp, gpu_cfg));
    }

    Table t({"pair", "STP MPS", "STP EVEN", "STP Dynamic",
             "EVEN vs MPS", "Dynamic vs MPS", "EVEN vs serial"});
    std::vector<double> even_rel;
    std::vector<double> dyn_rel;
    std::map<std::string, double> even_by_compute;
    std::map<std::string, double> serial_by_compute;
    std::map<std::string, int> count_by_compute;

    uint64_t repartitions = 0;

    for (const auto &scene : scenes) {
        for (const auto &cmp : computes) {
            std::map<PartitionScheme, double> stp;
            double even_makespan = 0.0;
            for (PartitionScheme scheme : schemes) {
                // Trace the Dynamic runs: the slicer emits a Repartition
                // event per quota change, giving a cheap sanity count of
                // how often the sampled optimum actually moved.
                telemetry::TelemetrySink sink;
                const bool traced = scheme == PartitionScheme::FgSlicer;
                const PairResult r = runPair(
                    scene, cmp, gpu_cfg, scheme, w, h,
                    [&](Gpu &gpu, StreamId, StreamId) {
                        if (traced) {
                            gpu.setTelemetry(&sink);
                        }
                    });
                if (traced) {
                    repartitions +=
                        sink.count(telemetry::EventKind::Repartition);
                }
                stp[scheme] =
                    gfx_alone[scene] / static_cast<double>(r.gfxFinish) +
                    cmp_alone[cmp] / static_cast<double>(r.cmpFinish);
                if (scheme == PartitionScheme::Fg) {
                    even_makespan = static_cast<double>(r.makespan);
                }
            }
            // Concurrency benefit vs serial execution of the two tasks.
            const double serial_speedup =
                (gfx_alone[scene] + cmp_alone[cmp]) / even_makespan;
            const double even_speed =
                stp[PartitionScheme::Fg] / stp[PartitionScheme::Mps];
            const double dyn_speed =
                stp[PartitionScheme::FgSlicer] /
                stp[PartitionScheme::Mps];
            even_rel.push_back(even_speed);
            dyn_rel.push_back(dyn_speed);
            even_by_compute[cmp] += even_speed;
            serial_by_compute[cmp] += serial_speedup;
            count_by_compute[cmp]++;
            t.addRow({scene + "+" + cmp,
                      Table::num(stp[PartitionScheme::Mps], 2),
                      Table::num(stp[PartitionScheme::Fg], 2),
                      Table::num(stp[PartitionScheme::FgSlicer], 2),
                      Table::num(even_speed, 2),
                      Table::num(dyn_speed, 2),
                      Table::num(serial_speedup, 2)});
        }
    }
    t.emit("fig12_warped_slicer.csv");

    const double even_gm = geomean(even_rel);
    const double dyn_gm = geomean(dyn_rel);
    std::printf("geomean STP vs MPS: EVEN %.2fx, Dynamic %.2fx "
                "(paper: EVEN is the fastest of the three)\n",
                even_gm, dyn_gm);
    for (const auto &[cmp, total] : even_by_compute) {
        std::printf("  EVEN STP gain with %-4s: %.2fx, concurrency "
                    "speedup vs serial: %.2fx%s\n", cmp.c_str(),
                    total / count_by_compute[cmp],
                    serial_by_compute[cmp] / count_by_compute[cmp],
                    cmp == "NN" ? "  (paper: NN shows the highest "
                                  "speedup running concurrently)"
                                : "");
    }
    std::printf("repartition decisions traced across Dynamic runs: %llu\n",
                static_cast<unsigned long long>(repartitions));
    return even_gm >= dyn_gm * 0.98 ? 0 : 1;
}
