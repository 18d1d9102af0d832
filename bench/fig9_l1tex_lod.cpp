/**
 * @file
 * Fig 9: L1 texture accesses with LoD on vs off, against the hardware
 * oracle's texture-unit counters.
 *
 * With mipmapping enabled, texture requests collide onto shared texels and
 * merge; with LoD off, every request references level 0 and access counts
 * explode (the paper reports per-drawcall errors of up to 6x and a MAPE
 * reduction from 219% to 33%, i.e. 6.6x).
 */

#include "bench_util.hpp"

using namespace crisp;
using namespace crisp::bench;

namespace
{

/** Simulator L1 texture access count: distinct lines per TEX instruction
 * (the coalescer's output stream into the unified L1). */
double
simTexAccesses(const KernelInfo &fs_kernel)
{
    uint64_t accesses = 0;
    for (uint32_t c = 0; c < fs_kernel.numCtas(); ++c) {
        const CtaTrace cta = fs_kernel.source->generate(c);
        for (const auto &w : cta.warps) {
            for (const auto &in : w.instrs) {
                if (in.opcode == Opcode::TEX) {
                    accesses += coalesceToLines(in).size();
                }
            }
        }
    }
    return static_cast<double>(accesses);
}

} // namespace

int
main()
{
    setVerbose(false);
    header("Fig 9", "L1 texture accesses: LoD on vs LoD off");
    const HardwareOracle oracle;

    std::vector<double> hw;
    std::vector<double> sim_on;
    std::vector<double> sim_off;
    Table t({"drawcall", "hw", "sim LoD on", "sim LoD off", "off/hw"});

    uint32_t salt = 0;
    for (const char *name : {"SPL", "SPH", "PT", "PL"}) {
        AddressSpace heap;
        const Scene scene = buildSceneByName(name, heap);

        AddressSpace fb_heap_on(0x4000'0000ull);
        PipelineConfig pc_on;
        pc_on.width = k2kWidth;
        pc_on.height = k2kHeight;
        RenderPipeline pipe_on(pc_on, fb_heap_on);
        const RenderSubmission sub_on = pipe_on.submit(scene);

        AddressSpace fb_heap_off(0x4000'0000ull);
        PipelineConfig pc_off = pc_on;
        pc_off.lodEnabled = false;
        RenderPipeline pipe_off(pc_off, fb_heap_off);
        const RenderSubmission sub_off = pipe_off.submit(scene);

        for (size_t d = 0; d < sub_on.reports.size(); ++d) {
            const DrawcallReport &r_on = sub_on.reports[d];
            const DrawcallReport &r_off = sub_off.reports[d];
            if (r_on.fsKernelIndex == ~0u || r_off.fsKernelIndex == ~0u) {
                continue;
            }
            ++salt;
            const double h = oracle.l1TexAccesses(
                sub_on.kernels[r_on.fsKernelIndex], salt);
            if (h <= 0.0) {
                continue;
            }
            const double on =
                simTexAccesses(sub_on.kernels[r_on.fsKernelIndex]);
            const double off =
                simTexAccesses(sub_off.kernels[r_off.fsKernelIndex]);
            hw.push_back(h);
            sim_on.push_back(on);
            sim_off.push_back(off);
            if (t.rows() < 20) {
                t.addRow({std::string(name) + "/" + r_on.name,
                          Table::num(h, 0), Table::num(on, 0),
                          Table::num(off, 0), Table::num(off / h, 2)});
            }
        }
    }
    std::printf("%s... (%zu drawcalls total)\n\n", t.toText().c_str(),
                hw.size());
    t.writeCsv("fig9_l1tex.csv");

    size_t skipped_on = 0;
    size_t skipped_off = 0;
    const double mape_on = mape(hw, sim_on, &skipped_on);
    const double mape_off = mape(hw, sim_off, &skipped_off);
    std::printf("MAPE with LoD on:  %6.1f%%   (paper: 33%%)\n", mape_on);
    std::printf("MAPE with LoD off: %6.1f%%   (paper: 219%%)\n", mape_off);
    if (skipped_on != 0 || skipped_off != 0) {
        std::printf("(skipped %zu zero-reference drawcalls of %zu)\n",
                    std::max(skipped_on, skipped_off), hw.size());
    }
    std::printf("LoD reduces MAPE by %.1fx (paper: 6.6x)\n",
                mape_off / std::max(1e-9, mape_on));

    double worst = 0.0;
    for (size_t i = 0; i < hw.size(); ++i) {
        worst = std::max(worst, sim_off[i] / hw[i]);
    }
    std::printf("worst per-drawcall LoD-off overestimate: %.1fx "
                "(paper: up to 6x)\n", worst);
    return mape_off > 2.0 * mape_on ? 0 : 1;
}
