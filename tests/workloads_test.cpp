#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "graphics/pipeline.hpp"
#include "workloads/compute.hpp"
#include "workloads/oracle.hpp"
#include "workloads/scenes.hpp"

namespace crisp
{
namespace
{

/** Opcode histogram over a kernel's first CTA. */
std::map<OpClass, uint64_t>
opMix(const KernelInfo &k)
{
    std::map<OpClass, uint64_t> mix;
    const CtaTrace cta = k.source->generate(0);
    for (const auto &w : cta.warps) {
        for (const auto &in : w.instrs) {
            mix[opcodeClass(in.opcode)]++;
        }
    }
    return mix;
}

TEST(ComputeKernels, VioIsManySmallKernels)
{
    AddressSpace heap;
    const auto kernels = buildVio(heap, /*frames=*/1);
    // 2 pyramid levels x 4 stages.
    EXPECT_EQ(kernels.size(), 8u);
    for (const auto &k : kernels) {
        EXPECT_GT(k.numCtas(), 0u);
        EXPECT_LE(k.numCtas(), 400u);  // "many small kernels"
        EXPECT_FALSE(k.name.empty());
        const CtaTrace cta = k.source->generate(0);
        EXPECT_GT(cta.totalInstrs(), 0u);
    }
    // Two frames double the kernel count.
    EXPECT_EQ(buildVio(heap, 2).size(), 16u);
}

TEST(ComputeKernels, VioMemoryAddressesStayInRegion)
{
    AddressSpace heap;
    const Addr start = heap.allocatedEnd();
    const auto kernels = buildVio(heap, 1);
    const Addr end = heap.allocatedEnd();
    for (const auto &k : kernels) {
        for (uint32_t c : {0u, k.numCtas() - 1}) {
            const CtaTrace cta = k.source->generate(c);
            for (const auto &w : cta.warps) {
                for (const auto &in : w.instrs) {
                    for (Addr a : in.addrs) {
                        if (opcodeClass(in.opcode) == OpClass::MemGlobal) {
                            EXPECT_GE(a, start);
                            EXPECT_LT(a, end);
                        }
                    }
                }
            }
        }
    }
}

TEST(ComputeKernels, HoloIsComputeBound)
{
    AddressSpace heap;
    const auto kernels = buildHolo(heap);
    ASSERT_FALSE(kernels.empty());
    const auto mix = opMix(kernels[0]);
    const uint64_t alu = mix.count(OpClass::FP32)
        ? mix.at(OpClass::FP32)
        : 0;
    const uint64_t sfu =
        mix.count(OpClass::SFU) ? mix.at(OpClass::SFU) : 0;
    const uint64_t mem = mix.count(OpClass::MemGlobal)
        ? mix.at(OpClass::MemGlobal)
        : 0;
    // Heavily compute-bound: ALU+SFU dwarf memory operations.
    EXPECT_GT(alu + sfu, 20 * mem);
    EXPECT_GT(sfu, 0u);  // sin/cos phase math
}

TEST(ComputeKernels, NnUsesSharedMemoryAndTensorOps)
{
    AddressSpace heap;
    const auto kernels = buildNn(heap);
    ASSERT_EQ(kernels.size(), 3u);
    for (const auto &k : kernels) {
        EXPECT_GE(k.smemPerCta, 16u * 1024);
        EXPECT_GE(k.regsPerThread, 48u);
        // Small-batch network: the grid cannot fill a 46-SM GPU.
        EXPECT_LT(k.numCtas(), 46u);
        const auto mix = opMix(k);
        EXPECT_GT(mix.at(OpClass::Tensor), 0u);
        EXPECT_GT(mix.at(OpClass::MemShared), 0u);
        EXPECT_GT(mix.at(OpClass::Barrier), 0u);
    }
}

TEST(ComputeKernels, TracesAreDeterministic)
{
    AddressSpace heap_a;
    AddressSpace heap_b;
    const auto ka = buildHolo(heap_a, 1);
    const auto kb = buildHolo(heap_b, 1);
    const CtaTrace a = ka[0].source->generate(3);
    const CtaTrace b = kb[0].source->generate(3);
    ASSERT_EQ(a.totalInstrs(), b.totalInstrs());
    for (size_t w = 0; w < a.warps.size(); ++w) {
        for (size_t i = 0; i < a.warps[w].instrs.size(); ++i) {
            EXPECT_EQ(a.warps[w].instrs[i].opcode,
                      b.warps[w].instrs[i].opcode);
            EXPECT_EQ(a.warps[w].instrs[i].addrs,
                      b.warps[w].instrs[i].addrs);
        }
    }
}

TEST(ComputeKernels, GatherPatternIsIrregular)
{
    ComputeKernelDesc d;
    d.name = "gather";
    d.ctas = 1;
    d.threadsPerCta = 32;
    d.loads = {{MemPatternKind::Gather, 0x100000, 1 << 20, 4, 1, 32}};
    const KernelInfo k = buildComputeKernel(d);
    const CtaTrace cta = k.source->generate(0);
    const auto &in = cta.warps[0].instrs[0];
    ASSERT_EQ(in.addrs.size(), 32u);
    // Gathered addresses are not monotonically increasing.
    bool monotone = true;
    for (size_t i = 1; i < in.addrs.size(); ++i) {
        monotone &= in.addrs[i] >= in.addrs[i - 1];
    }
    EXPECT_FALSE(monotone);
}

TEST(ComputeKernels, StreamingPatternCoalesces)
{
    ComputeKernelDesc d;
    d.name = "stream";
    d.ctas = 1;
    d.threadsPerCta = 32;
    d.loads = {{MemPatternKind::Streaming, 0x200000, 1 << 20, 4, 1, 32}};
    const KernelInfo k = buildComputeKernel(d);
    const CtaTrace cta = k.source->generate(0);
    const auto lines = coalesceToLines(cta.warps[0].instrs[0]);
    EXPECT_LE(lines.size(), 2u);
}

TEST(Scenes, AllBuildersAreDeterministic)
{
    for (const std::string &name : allSceneNames()) {
        AddressSpace ha;
        AddressSpace hb;
        const Scene a = buildSceneByName(name, ha);
        const Scene b = buildSceneByName(name, hb);
        ASSERT_EQ(a.draws.size(), b.draws.size()) << name;
        for (size_t i = 0; i < a.draws.size(); ++i) {
            EXPECT_EQ(a.draws[i].name, b.draws[i].name);
            EXPECT_EQ(a.draws[i].instanceCount, b.draws[i].instanceCount);
        }
    }
}

TEST(Scenes, ShaderStructureMatchesPaper)
{
    AddressSpace heap;
    // SPL: basic shading, a single texture per drawcall.
    const Scene spl = buildSponza(heap, false);
    for (const auto &d : spl.draws) {
        EXPECT_EQ(d.material->kind, ShaderKind::Basic);
        EXPECT_EQ(d.material->textures.size(), 1u);
    }
    // SPH: the same drawcalls with 8-map PBR materials.
    AddressSpace heap2;
    const Scene sph = buildSponza(heap2, true);
    ASSERT_EQ(sph.draws.size(), spl.draws.size());
    for (const auto &d : sph.draws) {
        EXPECT_EQ(d.material->kind, ShaderKind::Pbr);
        EXPECT_EQ(d.material->textures.size(), 8u);
    }
    // IT uses instancing with a layered texture.
    AddressSpace heap3;
    const Scene it = buildPlanets(heap3, 32);
    bool has_instanced = false;
    for (const auto &d : it.draws) {
        if (d.instanceCount > 1) {
            has_instanced = true;
            EXPECT_EQ(d.instanceModels.size(), d.instanceCount);
            EXPECT_GT(d.material->textures[0]->layers(), 1u);
            EXPECT_NE(d.instanceBufAddr, 0u);
        }
    }
    EXPECT_TRUE(has_instanced);
}

TEST(OracleTest, Deterministic)
{
    DrawcallReport r;
    r.drawIndex = 3;
    r.vsInvocations = 10000;
    const HardwareOracle oracle;
    EXPECT_DOUBLE_EQ(oracle.vsInvocations(r), oracle.vsInvocations(r));
}

TEST(OracleTest, VsInvocationsTrackReport)
{
    const HardwareOracle oracle;
    DrawcallReport r;
    r.drawIndex = 1;
    r.vsInvocations = 50000;
    const double hw = oracle.vsInvocations(r);
    EXPECT_NEAR(hw, 50000.0, 50000.0 * 0.05);
}

TEST(OracleTest, FrameTimeScalesWithWork)
{
    const HardwareOracle oracle;
    const GpuConfig gpu = GpuConfig::rtx3070();
    RenderSubmission small;
    DrawcallReport r;
    r.drawIndex = 0;
    r.vsInvocations = 1000;
    r.vsThreadsLaunched = 1024;
    r.fragments = 10000;
    r.texturesPerFragment = 1;
    small.reports.push_back(r);

    RenderSubmission big = small;
    big.reports[0].fragments = 1000000;
    big.reports[0].vsThreadsLaunched = 102400;
    big.reports[0].vsInvocations = 100000;

    EXPECT_GT(oracle.frameTimeMs(big, gpu), oracle.frameTimeMs(small, gpu));
    EXPECT_GT(oracle.frameTimeMs(small, gpu), 0.0);
}

TEST(OracleTest, MobileGpuSlowerThanDesktop)
{
    const HardwareOracle oracle;
    RenderSubmission sub;
    DrawcallReport r;
    r.drawIndex = 0;
    r.vsInvocations = 10000;
    r.vsThreadsLaunched = 10240;
    r.fragments = 500000;
    r.texturesPerFragment = 8;
    sub.reports.push_back(r);
    EXPECT_GT(oracle.frameTimeMs(sub, GpuConfig::jetsonOrin()),
              oracle.frameTimeMs(sub, GpuConfig::rtx3070()));
}


TEST(ComputeKernels, TimewarpGathersFromRenderedFrame)
{
    AddressSpace heap;
    const Addr frame = heap.alloc(4ull * 640 * 360);
    const auto kernels = buildTimewarp(heap, frame, 640, 360);
    ASSERT_EQ(kernels.size(), 2u);  // one pass per eye
    for (const auto &k : kernels) {
        EXPECT_GT(k.numCtas(), 0u);
        const CtaTrace cta = k.source->generate(0);
        bool reads_frame = false;
        bool writes_output = false;
        for (const auto &w : cta.warps) {
            for (const auto &in : w.instrs) {
                if (in.opcode == Opcode::LDG) {
                    for (Addr a : in.addrs) {
                        reads_frame |= a >= frame &&
                                       a < frame + 4ull * 640 * 360;
                    }
                }
                writes_output |= in.opcode == Opcode::STG;
            }
        }
        EXPECT_TRUE(reads_frame) << "ATW must sample the rendered frame";
        EXPECT_TRUE(writes_output);
    }
}

TEST(ComputeKernels, TimewarpGatherIsIrregular)
{
    AddressSpace heap;
    const Addr frame = heap.alloc(4ull * 320 * 180);
    const auto kernels = buildTimewarp(heap, frame, 320, 180);
    const CtaTrace cta = kernels[0].source->generate(0);
    // Distortion-corrected sampling: per-warp loads span multiple lines.
    for (const auto &w : cta.warps) {
        for (const auto &in : w.instrs) {
            if (in.opcode == Opcode::LDG) {
                EXPECT_GT(coalesceToLines(in).size(), 2u);
                return;
            }
        }
    }
    FAIL() << "no gather load found";
}

// ---------------------------------------------------------------------
// Lane addresses: the generator steps streaming lanes from lane 0 and
// hoists every per-warp term. This is the per-lane formula it replaced,
// with a 64-bit division per lane for the region size and one more for
// the final reduction.

uint64_t
referenceMix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

Addr
referencePatternAddr(const MemPattern &p, uint64_t global_thread,
                     uint32_t access, uint32_t iteration)
{
    const uint64_t elems = std::max<uint64_t>(
        1, p.regionBytes / p.accessBytes);
    uint64_t index = 0;
    switch (p.kind) {
      case MemPatternKind::Streaming:
        index = global_thread * p.count + access +
                static_cast<uint64_t>(iteration) * elems / 7;
        break;
      case MemPatternKind::Stencil: {
        static const int64_t taps[] = {0, 1, -1, 0, 0, 2, -2, 0};
        const int64_t dx = taps[(access * 2) % 8];
        const int64_t dy = taps[(access * 2 + 1) % 8];
        const int64_t linear = static_cast<int64_t>(global_thread) + dx +
                               dy * static_cast<int64_t>(p.rowPitch);
        index = static_cast<uint64_t>(
            std::clamp<int64_t>(linear, 0,
                                static_cast<int64_t>(elems) - 1));
        break;
      }
      case MemPatternKind::Gather:
        index = referenceMix64(global_thread * 131 + access * 17 +
                               iteration) %
            elems;
        break;
      case MemPatternKind::Broadcast:
        index = (access + iteration * 13) % std::min<uint64_t>(elems, 1024);
        break;
    }
    return p.base + (index % elems) * p.accessBytes;
}

void
expectLanesMatch(const MemPattern &p, uint64_t thread_base, uint32_t lanes,
                 uint32_t access, uint32_t iteration, uint32_t mask)
{
    std::vector<Addr> got;
    appendPatternAddrs(p, thread_base, lanes, access, iteration, mask, got);
    std::vector<Addr> want;
    for (uint32_t l = 0; l < lanes; ++l) {
        if (mask & (1u << l)) {
            want.push_back(
                referencePatternAddr(p, thread_base + l, access, iteration));
        }
    }
    ASSERT_EQ(got, want) << "kind " << static_cast<int>(p.kind) << " region "
                         << p.regionBytes << " bytes " << int(p.accessBytes)
                         << " count " << p.count << " thread_base "
                         << thread_base << " access " << access
                         << " iteration " << iteration;
}

TEST(PatternLanes, EveryKindMatchesPerLaneFormula)
{
    Rng rng(0x57e9);
    for (MemPatternKind kind :
         {MemPatternKind::Streaming, MemPatternKind::Stencil,
          MemPatternKind::Gather, MemPatternKind::Broadcast}) {
        // Region sizes down to one element (elems = 1) and past 2^32.
        for (uint64_t region : {1ull, 4ull, 12ull, 100ull, 4096ull,
                                1ull << 20, (1ull << 32) + 12, 3ull << 40}) {
            for (uint8_t bytes : {1, 4, 8, 16}) {
                // count >= elems, count == 1, a multiple of elems.
                for (uint32_t count : {1u, 2u, 3u, 7u, 33u, 1000u, 4096u}) {
                    MemPattern p;
                    p.kind = kind;
                    p.base = 0x10000;
                    p.regionBytes = region;
                    p.accessBytes = bytes;
                    p.count = count;
                    p.rowPitch = 1 + static_cast<uint32_t>(rng.nextBelow(700));
                    for (uint64_t thread_base :
                         {0ull, 32ull, 12345ull, (1ull << 32) - 16,
                          (1ull << 32) + 64}) {
                        for (uint32_t lanes : {1u, 17u, 32u}) {
                            const uint32_t access =
                                static_cast<uint32_t>(rng.nextBelow(count));
                            const uint32_t iteration =
                                static_cast<uint32_t>(rng.nextBelow(50));
                            const uint32_t mask = rng.nextBelow(2) == 0
                                ? ~0u
                                : static_cast<uint32_t>(rng.next());
                            expectLanesMatch(p, thread_base, lanes, access,
                                             iteration, mask);
                        }
                    }
                }
            }
        }
    }
}

TEST(PatternLanes, StreamingRawIndexWrapPast64BitsMatchesPerLaneFormula)
{
    // Lanes whose raw index sum crosses 2^64 mid-warp: the stepped index
    // must drop 2^64 mod elems exactly where the per-lane formula wraps.
    MemPattern p;
    p.kind = MemPatternKind::Streaming;
    p.base = 0x2000;
    p.accessBytes = 4;
    for (uint64_t region : {4ull * 7, 4ull * 1000, 4ull * 65536, 4ull * 3}) {
        p.regionBytes = region;
        for (uint32_t count : {1u, 5u, 1u << 20}) {
            p.count = count;
            const uint64_t wrap_thread = ~0ull / count;
            for (uint64_t back = 0; back < 40; ++back) {
                expectLanesMatch(p, wrap_thread - back, 32, 0, 0, ~0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every generator reserves each warp's exact instruction count and each
// instruction's exact address count, so no trace vector reallocates.

void
expectExactCapacity(const CtaTrace &cta, const std::string &what)
{
    for (const WarpTrace &w : cta.warps) {
        ASSERT_EQ(w.instrs.capacity(), w.instrs.size()) << what;
        for (const TraceInstr &in : w.instrs) {
            ASSERT_EQ(in.addrs.capacity(), in.addrs.size()) << what;
        }
    }
}

TEST(TraceCapacity, ComputeWarpsAreReservedExactly)
{
    AddressSpace heap;
    std::vector<KernelInfo> kernels = buildVio(heap, 1, 160, 120);
    for (KernelInfo &k : buildHolo(heap, 1)) {
        kernels.push_back(std::move(k));
    }
    for (KernelInfo &k : buildNn(heap, 1)) {
        kernels.push_back(std::move(k));
    }
    ComputeKernelDesc divergent;
    divergent.name = "rays";
    divergent.ctas = 2;
    divergent.threadsPerCta = 80;
    divergent.fp32Ops = 3;
    divergent.loads.push_back(MemPattern{});
    divergent.divergenceMaxExtraIters = 5;
    divergent.divergenceSeed = 9;
    kernels.push_back(buildComputeKernel(divergent));
    for (const KernelInfo &k : kernels) {
        for (uint32_t c = 0; c < std::min<uint32_t>(k.numCtas(), 4); ++c) {
            expectExactCapacity(k.source->generate(c), k.name);
        }
    }
}

TEST(TraceCapacity, VertexAndFragmentWarpsAreReservedExactly)
{
    for (const std::string &name : {std::string("SPH"), std::string("IT")}) {
        for (TexFilter filter : {TexFilter::Nearest, TexFilter::Bilinear,
                                 TexFilter::Trilinear}) {
            for (bool depth : {false, true}) {
                AddressSpace heap;
                Scene scene = buildSceneByName(name, heap);
                for (auto &mat : scene.materials) {
                    mat->filter = filter;
                }
                PipelineConfig cfg;
                cfg.width = 160;
                cfg.height = 90;
                cfg.emitDepthTraffic = depth;
                RenderPipeline pipe(cfg, heap);
                const RenderSubmission sub = pipe.submit(scene);
                uint32_t checked = 0;
                for (const KernelInfo &k : sub.kernels) {
                    const uint32_t ctas = std::min<uint32_t>(k.numCtas(), 3);
                    for (uint32_t c = 0; c < ctas; ++c) {
                        expectExactCapacity(k.source->generate(c), k.name);
                        ++checked;
                    }
                }
                EXPECT_GT(checked, 0u) << name;
            }
        }
    }
}

} // namespace
} // namespace crisp
