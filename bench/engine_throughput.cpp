// Cycle-engine throughput: simulated cycles per wall-clock second on a
// compute-heavy many-SM machine, best of five runs, plus a determinism
// cross-check (every repetition must produce identical stats).
//
// Runs two machine sizes by default — the historical 16-SM config and a
// 64-SM config with a proportionally larger workload. Pass
// `--num-sms N` to run a single size.
//
// Emits BENCH_engine_throughput.json in the working directory. Each
// config keeps the trajectory's JSON shape: one `runs[]` entry at
// `threads: 1`, the key tools/check_perf_regression.py gates on.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/parse.hpp"

namespace crisp::bench
{
namespace
{

GpuConfig
bigGpu(uint32_t num_sms)
{
    GpuConfig cfg;
    cfg.name = "engine-bench";
    cfg.numSms = num_sms;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 256.0;
    cfg.l2.numBanks = 8;
    cfg.l2.bankGeometry = {256 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

/** Compute-heavy workload sized to keep @p num_sms SMs busy (16 CTAs per
 *  SM per kernel). Each CTA's trace is generated when it launches, so the
 *  timed run includes generation. */
std::vector<KernelInfo>
buildWorkload(AddressSpace &heap, uint32_t num_sms)
{
    std::vector<KernelInfo> kernels;
    for (int i = 0; i < 4; ++i) {
        ComputeKernelDesc d;
        d.name = "dense" + std::to_string(i);
        d.ctas = 16 * num_sms;
        d.threadsPerCta = 256;
        d.regsPerThread = 48;
        d.iterations = 8;
        d.fp32Ops = 24;
        d.intOps = 8;
        d.loads = {{MemPatternKind::Broadcast, heap.alloc(1 << 16), 1 << 16,
                    4, 2, 128}};
        kernels.push_back(buildComputeKernel(d));
    }
    return kernels;
}

std::string
statsFingerprint(const StatsRegistry &stats)
{
    std::ostringstream os;
    for (const auto &[id, st] : stats.allStreams()) {
        os << id << ':' << st.cycles << ',' << st.instructions << ','
           << st.l1Accesses << ',' << st.l2Accesses << ','
           << st.dramReads << ',' << st.dramWrites << ';';
    }
    return os.str();
}

struct Measurement
{
    Cycle cycles = 0;
    double wallSec = 0.0;
    double cyclesPerSec = 0.0;
    std::string fingerprint;
};

Measurement
measure(uint32_t num_sms)
{
    Measurement m;
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(bigGpu(num_sms));
    const StreamId s = gpu.createStream("compute");
    for (const KernelInfo &k : buildWorkload(heap, num_sms)) {
        gpu.enqueueKernel(s, k);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto r = gpu.run(2'000'000'000ull);
    const auto t1 = std::chrono::steady_clock::now();
    fatal_if(!r.completed, "engine bench workload did not drain");

    m.cycles = r.cycles;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    m.cyclesPerSec = static_cast<double>(r.cycles) / m.wallSec;
    m.fingerprint = statsFingerprint(gpu.stats());
    return m;
}

struct ConfigResult
{
    uint32_t numSms = 0;
    /** The fastest of the timed runs. */
    Measurement best;
};

ConfigResult
runConfig(uint32_t num_sms)
{
    ConfigResult cr;
    cr.numSms = num_sms;
    std::printf("-- num_sms=%u --\n", num_sms);
    // One untimed warmup simulation: the first run on a quiet host pays
    // page-cache and frequency-ramp costs that the timed runs don't.
    (void)measure(num_sms);
    // Best of 5: individual runs are short enough that scheduler noise
    // on a shared host swings them several percent. Min-wall is the
    // standard estimator for the noise-free rate.
    constexpr int kReps = 5;
    cr.best = measure(num_sms);
    for (int rep = 1; rep < kReps; ++rep) {
        Measurement next = measure(num_sms);
        fatal_if(next.fingerprint != cr.best.fingerprint ||
                     next.cycles != cr.best.cycles,
                 "nondeterminism across repetitions");
        if (next.wallSec < cr.best.wallSec) {
            cr.best = next;
        }
    }
    const Measurement &m = cr.best;
    std::printf("cycles=%llu  wall=%.3fs  %.3fM cycles/s\n\n",
                static_cast<unsigned long long>(m.cycles), m.wallSec,
                m.cyclesPerSec / 1e6);
    return cr;
}

} // namespace
} // namespace crisp::bench

int
main(int argc, char **argv)
{
    using namespace crisp;
    using namespace crisp::bench;

    std::vector<uint32_t> sizes = {16u, 64u};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--num-sms" && i + 1 < argc) {
            const uint32_t n = wholeNumber<uint32_t>("--num-sms", argv[++i]);
            fatal_if(n == 0, "--num-sms needs at least one SM");
            sizes = {n};
        } else {
            std::fprintf(stderr, "usage: %s [--num-sms N]\n", argv[0]);
            return 2;
        }
    }

    header("engine_throughput", "cycle-engine throughput, compute workload");
    const uint32_t cores = std::thread::hardware_concurrency();
    std::printf("host cores: %u\n\n", cores);

    std::vector<ConfigResult> configs;
    for (uint32_t num_sms : sizes) {
        configs.push_back(runConfig(num_sms));
    }

    FILE *f = std::fopen("BENCH_engine_throughput.json", "w");
    fatal_if(f == nullptr, "cannot write BENCH_engine_throughput.json");
    std::fprintf(f, "{\n  \"bench\": \"engine_throughput\",\n");
    std::fprintf(f, "  \"host_cores\": %u,\n", cores);
    std::fprintf(f, "  \"configs\": [\n");
    for (size_t c = 0; c < configs.size(); ++c) {
        const ConfigResult &cr = configs[c];
        // Every repetition matched the first (or the bench died above).
        std::fprintf(f, "    {\"num_sms\": %u, \"deterministic\": true,\n",
                     cr.numSms);
        const Measurement &m = cr.best;
        std::fprintf(
            f,
            "     \"runs\": [\n"
            "      {\"threads\": 1, \"threads_effective\": 1, "
            "\"cycles\": %llu, "
            "\"wall_sec\": %.6f, \"cycles_per_sec\": %.1f, "
            "\"speedup\": 1.000}\n"
            "     ]}%s\n",
            static_cast<unsigned long long>(m.cycles), m.wallSec,
            m.cyclesPerSec, c + 1 < configs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_engine_throughput.json\n");
    return 0;
}
