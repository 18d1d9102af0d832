/**
 * @file
 * crisp_sim: the command-line simulator driver.
 *
 * Runs one scenario file — any rendering scene with any compute workload
 * on one GPU preset, or on several GPUs joined by an inter-GPU fabric —
 * through the cycle-level simulation and prints (optionally CSV-dumps)
 * per-stream statistics: the front door a user points their own
 * experiments at. The file states the whole experiment, partitioning
 * included (gpu.partition on one GPU, gpu.placement on several). One
 * GPU and many run through the same run loop, which always jumps over
 * cycles in which nothing anywhere in the machine can happen. Every run
 * is watched: the forward-progress watchdog and the invariant checkers
 * run every kCheckInterval cycles, and a hung or inconsistent run prints
 * its hang report on stderr and exits 1.
 *
 * Usage:
 *   crisp_sim --scenario FILE [options]
 *     --scenario FILE   the workload: a scenario JSON file (required;
 *                       see scenarios/ and "Scenario files" in
 *                       docs/ARCHITECTURE.md)
 *     --image FILE      dump the rendered frame as PPM
 *     --csv FILE        dump per-stream stats as CSV
 *     --kernels         print the per-kernel execution log
 *     --trace FILE      write a Chrome trace_event JSON (Perfetto-loadable)
 *     --max-cycles N    stop the simulation after N cycles; a capped
 *                       run that did not drain is reported, not fatal
 *     --sample N        sample counters every N cycles (see --timeline)
 *     --timeline FILE   dump the sampled counter time-series as CSV
 *                       (FILE.gpu<d> per device on a multi-GPU machine)
 *     --profile         print the simulator's wall-clock self-profile
 *                       and its exact work counts per device (ticks,
 *                       SM steps, fast-forward jumps, fabric-retry
 *                       re-offers, refusals and skipped re-offers)
 *     --quiet           suppress the banner
 *
 * Every N is a whole decimal number; anything else ("1e6", "-1", "4k")
 * is rejected with the flag's name.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "gpu/gpu.hpp"
#include "gpu/machine.hpp"
#include "mgpu/multi_gpu.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/sink.hpp"

using namespace crisp;

namespace
{

/** Cycles between watchdog and invariant checks. */
constexpr Cycle kCheckInterval = 4096;

struct Options
{
    std::string scenario;
    std::string image;
    std::string csv;
    bool kernels = false;
    std::string trace;
    Cycle maxCycles = 8'000'000'000ull;
    bool maxCyclesSet = false;
    Cycle sample = 0;
    std::string timeline;
    bool profile = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        fatal_if(i + 1 >= argc, "missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--scenario") {
            opt.scenario = need(i);
        } else if (a == "--image") {
            opt.image = need(i);
        } else if (a == "--csv") {
            opt.csv = need(i);
        } else if (a == "--kernels") {
            opt.kernels = true;
        } else if (a == "--trace") {
            opt.trace = need(i);
        } else if (a == "--max-cycles") {
            opt.maxCycles = wholeNumber<Cycle>("--max-cycles", need(i));
            opt.maxCyclesSet = true;
        } else if (a == "--sample") {
            opt.sample = wholeNumber<Cycle>("--sample", need(i));
        } else if (a == "--timeline") {
            opt.timeline = need(i);
        } else if (a == "--profile") {
            opt.profile = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--help" || a == "-h") {
            std::printf("see the header of examples/crisp_sim.cpp\n");
            std::exit(0);
        } else {
            fatal("unknown option %s", a.c_str());
        }
    }
    fatal_if(opt.scenario.empty(),
             "nothing to simulate: pass --scenario FILE (see scenarios/)");
    return opt;
}

const char *
placementName(scenario::Placement p)
{
    return p == scenario::Placement::Split       ? "split"
           : p == scenario::Placement::Colocated ? "colocated"
                                                 : "mig";
}

/**
 * Build the scenario's machine, run it and report. One GPU and many
 * differ only in how the devices are built and the work submitted: a
 * lone Gpu partitioned by gpu.partition, or a MultiGpu partitioned by
 * gpu.placement.
 */
int
simulate(const Options &opt, const scenario::Scenario &scn)
{
    const uint32_t num_gpus = scn.gpu.numGpus;
    const GpuConfig cfg = scenario::gpuConfigFor(scn);

    std::unique_ptr<Gpu> lone;
    std::unique_ptr<mgpu::MultiGpu> multi;
    std::vector<Gpu *> devices;
    if (num_gpus == 1) {
        lone = std::make_unique<Gpu>(cfg);
        devices.push_back(lone.get());
    } else {
        mgpu::MultiGpuConfig mcfg;
        mcfg.numGpus = num_gpus;
        mcfg.gpu = cfg;
        multi = std::make_unique<mgpu::MultiGpu>(mcfg);
        for (uint32_t d = 0; d < num_gpus; ++d) {
            devices.push_back(&multi->device(d));
        }
    }

    // One telemetry sink per device serves --trace, --sample/--timeline
    // and --profile (device 0 self-profiles). Attached before any frame
    // is submitted so the self-profiler also sees the functional
    // rasterization work.
    std::vector<std::unique_ptr<telemetry::TelemetrySink>> sinks;
    const bool wants_telemetry = !opt.trace.empty() || opt.sample != 0 ||
        !opt.timeline.empty() || opt.profile;
    for (size_t d = 0; wants_telemetry && d < devices.size(); ++d) {
        telemetry::TelemetryConfig tc;
        tc.eventCapacity = 1 << 20;
        tc.sampleInterval = opt.sample;
        if (!opt.timeline.empty() && tc.sampleInterval == 0) {
            tc.sampleInterval = 1000;
        }
        tc.selfProfile = opt.profile && d == 0;
        sinks.push_back(std::make_unique<telemetry::TelemetrySink>(tc));
        devices[d]->setTelemetry(sinks.back().get());
    }

    scenario::Materialized mat;
    scenario::MultiSubmitResult sr;
    AddressSpace heap;
    std::string machine_name = cfg.name;
    std::string partition =
        std::string("partition=") + partitionSchemeName(scn.gpu.partition);
    if (multi) {
        sr = scenario::submitScenarioMulti(scn, *multi, mat);
        machine_name = std::to_string(num_gpus) + " x " + cfg.name;
        partition = std::string("placement=") +
            placementName(scn.gpu.placement);
    } else {
        const scenario::SubmitResult one =
            scenario::submitScenario(scn, *lone, heap, mat);
        sr.gfx = one.gfx;
        sr.cmp = one.cmp;
    }

    if (!opt.quiet) {
        std::printf("crisp_sim: scenario=%s (\"%s\") gpu=%s %s\n",
                    opt.scenario.c_str(), scn.name.c_str(),
                    machine_name.c_str(), partition.c_str());
    }

    integrity::RunOptions run_opts;
    run_opts.checkInterval = kCheckInterval;
    const Gpu::RunResult r =
        Machine(devices, multi ? &multi->fabric() : nullptr)
            .run(opt.maxCycles, run_opts);
    if (r.hang) {
        std::fprintf(stderr, "%s", r.hang->render().c_str());
        return 1;
    }
    if (!r.completed && opt.maxCyclesSet) {
        std::printf("stopped at --max-cycles %llu before draining\n",
                    static_cast<unsigned long long>(opt.maxCycles));
    } else {
        fatal_if(!r.completed, "simulation did not drain");
    }

    if (!sinks.empty() && !opt.trace.empty()) {
        // One device keeps the unprefixed single-machine trace layout.
        std::vector<const telemetry::TelemetrySink *> views;
        uint64_t emitted = 0;
        uint64_t dropped = 0;
        for (const auto &s : sinks) {
            views.push_back(s.get());
            emitted += s->emitted();
            dropped += s->dropped();
        }
        if (views.size() == 1) {
            telemetry::writeChromeTrace(*views[0], opt.trace);
        } else {
            telemetry::writeChromeTrace(views, opt.trace);
        }
        std::printf("wrote %s (%llu events, %llu dropped)\n",
                    opt.trace.c_str(),
                    static_cast<unsigned long long>(emitted),
                    static_cast<unsigned long long>(dropped));
    }
    for (size_t d = 0; d < sinks.size() && !opt.timeline.empty(); ++d) {
        const std::string path = sinks.size() == 1
            ? opt.timeline
            : opt.timeline + ".gpu" + std::to_string(d);
        sinks[d]->series().toTable().writeCsv(path);
        std::printf("wrote %s (%zu samples)\n", path.c_str(),
                    sinks[d]->series().rows());
    }
    if (!opt.image.empty() && mat.pipeline) {
        mat.pipeline->framebuffer().writePpm(opt.image);
    }

    if (multi) {
        const mgpu::InterGpuFabric &fabric = multi->fabric();
        std::printf(
            "total: %llu cycles = %.4f ms on %s (fabric: %llu remote "
            "reqs, %llu migrations, %llu bytes)\n\n",
            static_cast<unsigned long long>(r.cycles),
            cfg.cyclesToMs(r.cycles), machine_name.c_str(),
            static_cast<unsigned long long>(fabric.requestsAccepted()),
            static_cast<unsigned long long>(fabric.pageMigrations()),
            static_cast<unsigned long long>(fabric.bytesTransferred()));
    } else {
        std::printf("total: %llu cycles = %.4f ms on %s (L2 hit %.1f%%, "
                    "DRAM busy %.1f%%)\n\n",
                    static_cast<unsigned long long>(r.cycles),
                    cfg.cyclesToMs(r.cycles), machine_name.c_str(),
                    100.0 * lone->l2().hitRate(),
                    100.0 * lone->l2().dramBusyCycles() / r.cycles);
    }
    // Every device of a machine jumps together; device 0 counts for all.
    std::printf("fast-forward: %llu jumps skipped %llu idle cycles\n",
                static_cast<unsigned long long>(
                    devices[0]->fastForwardJumps()),
                static_cast<unsigned long long>(
                    devices[0]->fastForwardCycles()));

    Table t({"stream", "device", "cycles(first..last)", "kernels",
             "instructions", "IPC", "L1 hit%", "L2 hit%", "tex acc",
             "remote", "dram rd"});
    auto add_stream = [&](const char *name, StreamId id, uint32_t dev) {
        if (id == kInvalidStream) {
            return;
        }
        Gpu &gpu = *devices[dev];
        const StreamStats &st = gpu.stats().stream(id);
        t.addRow({name, std::to_string(dev),
                  std::to_string(st.firstCycle) + ".." +
                      std::to_string(gpu.streamFinishCycle(id)),
                  std::to_string(st.kernelsCompleted),
                  std::to_string(st.instructions), Table::num(st.ipc(), 2),
                  Table::num(100 * st.l1HitRate(), 1),
                  Table::num(100 * st.l2HitRate(), 1),
                  std::to_string(st.l1TexAccesses),
                  std::to_string(st.remoteAccesses),
                  std::to_string(st.dramReads)});
    };
    add_stream("graphics", sr.gfx, sr.gfxDevice);
    add_stream("compute", sr.cmp, sr.cmpDevice);
    std::printf("%s", t.toText().c_str());
    if (!opt.csv.empty()) {
        t.writeCsv(opt.csv);
        std::printf("wrote %s\n", opt.csv.c_str());
    }
    if (opt.kernels) {
        std::printf("\nper-kernel execution log:\n");
        Table kt({"kernel", "device", "stream", "CTAs", "launch",
                  "complete", "cycles"});
        for (size_t d = 0; d < devices.size(); ++d) {
            for (const auto &rec : devices[d]->kernelLog()) {
                kt.addRow({rec.name, std::to_string(d),
                           rec.stream == sr.gfx ? "graphics" : "compute",
                           std::to_string(rec.ctas),
                           std::to_string(rec.launchCycle),
                           std::to_string(rec.completeCycle),
                           std::to_string(rec.completeCycle -
                                          rec.launchCycle)});
            }
        }
        std::printf("%s", kt.toText().c_str());
    }
    if (!sinks.empty() && opt.profile) {
        std::printf("\nsimulator self-profile (wall clock):\n%s",
                    sinks[0]->profiler().render(r.cycles).c_str());
        // Exact counts of the run loop's own work, one column per
        // device: unlike the wall clock above, they do not move between
        // runs of the same build.
        std::vector<std::string> headers{"work"};
        std::vector<Gpu::WorkCounts> counts;
        for (size_t d = 0; d < devices.size(); ++d) {
            headers.push_back("gpu" + std::to_string(d));
            counts.push_back(devices[d]->workCounts());
        }
        Table wt(headers);
        auto add_count = [&](const char *name,
                             uint64_t Gpu::WorkCounts::*field) {
            std::vector<std::string> row{name};
            for (const Gpu::WorkCounts &c : counts) {
                row.push_back(std::to_string(c.*field));
            }
            wt.addRow(std::move(row));
        };
        add_count("ticks", &Gpu::WorkCounts::ticks);
        add_count("sm-steps", &Gpu::WorkCounts::smSteps);
        add_count("ff-jumps", &Gpu::WorkCounts::fastForwardJumps);
        add_count("retry-offers", &Gpu::WorkCounts::retryOffers);
        add_count("retry-refusals", &Gpu::WorkCounts::retryRefusals);
        add_count("retry-skips", &Gpu::WorkCounts::retrySkips);
        add_count("issue-tries", &Gpu::WorkCounts::issueTries);
        add_count("issue-refusals", &Gpu::WorkCounts::issueRefusals);
        std::printf("\nsimulator work counts (exact):\n%s",
                    wt.toText().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opt = parseArgs(argc, argv);
    scenario::Scenario scn;
    scenario::ScenarioError serr;
    if (!scenario::loadScenarioFile(opt.scenario, scn, serr)) {
        fatal("%s", serr.str().c_str());
    }
    return simulate(opt, scn);
}
