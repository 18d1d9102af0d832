/**
 * @file
 * trace_pack: pack a scenario file's workload into a CRTR trace file.
 *
 *   trace_pack --out run.crtr --scenario scenarios/file.json
 *
 * Packs both sides of the scenario, graphics frames first then compute,
 * with every dependency: a preset compute workload chains each kernel on
 * the one before it, as the live stream order does, and a rendered
 * frame carries its drawcall dependency graph. Arrival-schedule
 * scenarios (bursts, "at", delays) and multi-GPU machines have no packed
 * representation and are rejected by name.
 *
 * The packed file replays through traceio::submitLoaded with
 * byte-identical StreamStats to live generation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "scenario/build.hpp"
#include "scenario/scenario.hpp"
#include "traceio/writer.hpp"

using namespace crisp;

int
main(int argc, char **argv)
{
    const char *usage = "usage: trace_pack --out FILE --scenario FILE";
    std::string out;
    std::string scenario_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        fatal_if(arg != "--out" && arg != "--scenario", "%s", usage);
        fatal_if(i + 1 >= argc, "%s needs a value", arg.c_str());
        (arg == "--out" ? out : scenario_path) = argv[++i];
    }
    fatal_if(out.empty() || scenario_path.empty(), "%s", usage);

    scenario::Scenario sc;
    scenario::ScenarioError serr;
    if (!scenario::loadScenarioFile(scenario_path, sc, serr)) {
        fatal("%s", serr.str().c_str());
    }
    AddressSpace heap(0x8000'0000ull);
    const Addr heap_base = heap.allocatedEnd();
    // The materialized scene must outlive packing: trace generators
    // reference its textures while the writer streams CTAs out.
    scenario::Materialized mat;
    scenario::Flattened flat;
    std::string why;
    if (!scenario::flattenScenario(sc, heap, mat, flat, why)) {
        fatal("cannot pack %s: %s", scenario_path.c_str(), why.c_str());
    }
    // One trace, graphics frames first then compute, dependency indices
    // re-based onto the concatenated list. A trace replays on a single
    // stream, whose FIFO order already serializes the two sides the way
    // the indices allow.
    std::vector<KernelInfo> kernels = std::move(flat.gfxKernels);
    std::vector<int> depends_on = std::move(flat.gfxDependsOn);
    const int offset = static_cast<int>(kernels.size());
    for (size_t i = 0; i < flat.cmpKernels.size(); ++i) {
        kernels.push_back(std::move(flat.cmpKernels[i]));
        const int dep = flat.cmpDependsOn[i];
        depends_on.push_back(dep < 0 ? -1 : dep + offset);
    }
    const std::string fingerprint =
        "trace_pack/scenario/" + sc.canonicalText;

    traceio::TraceError err;
    if (!traceio::writeTrace(out, fingerprint, kernels, depends_on,
                             heap.allocatedEnd() - heap_base, err)) {
        fatal("packing failed: %s", err.render().c_str());
    }

    uint64_t ctas = 0;
    for (const KernelInfo &k : kernels) {
        ctas += k.numCtas();
    }
    std::printf("packed %zu kernels (%llu CTAs) into %s\n", kernels.size(),
                static_cast<unsigned long long>(ctas), out.c_str());
    std::printf("fingerprint: %s\n", fingerprint.c_str());
    return 0;
}
