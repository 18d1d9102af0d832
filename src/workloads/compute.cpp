#include "workloads/compute.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "isa/trace_builder.hpp"

namespace crisp
{

namespace
{

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** (@p a + @p b) mod @p m for a, b < m, without overflow. */
uint64_t
addMod(uint64_t a, uint64_t b, uint64_t m)
{
    return a >= m - b ? a - (m - b) : a + b;
}

} // namespace

void
appendPatternAddrs(const MemPattern &p, uint64_t thread_base, uint32_t lanes,
                   uint32_t access, uint32_t iteration, uint32_t active_mask,
                   std::vector<Addr> &out)
{
    // Every kind picks an element index in [0, elems); lane l is thread
    // thread_base + l. The region's element count and any per-warp term
    // are worked out once, so only a gather divides per lane.
    const uint64_t elems = std::max<uint64_t>(
        1, p.regionBytes / p.accessBytes);
    auto emit = [&](uint32_t lane, uint64_t index) {
        if (active_mask & (1u << lane)) {
            out.push_back(p.base + index * p.accessBytes);
        }
    };
    switch (p.kind) {
      case MemPatternKind::Streaming: {
        // Lane l reads element (thread_base + l) * count + access +
        // iteration * elems / 7 (mod 2^64, then mod elems). Lane l + 1's
        // raw index is lane l's plus count, so the reduced index steps by
        // count mod elems with one conditional subtraction. Where the raw
        // sum wraps past 2^64 the reduction loses 2^64 mod elems.
        const uint64_t step = p.count % elems;
        uint64_t raw = thread_base * p.count + access +
                       static_cast<uint64_t>(iteration) * elems / 7;
        uint64_t index = raw % elems;
        for (uint32_t l = 0; l < lanes; ++l) {
            emit(l, index);
            const uint64_t next = raw + p.count;
            index = addMod(index, step, elems);
            if (next < raw) {
                const uint64_t lost = (0 - elems) % elems;
                index = addMod(index, (elems - lost) % elems, elems);
            }
            raw = next;
        }
        break;
      }
      case MemPatternKind::Stencil: {
        // Neighborhood taps around the thread's pixel: offsets alternate
        // horizontally and vertically.
        static const int64_t taps[] = {0, 1, -1, 0, 0, 2, -2, 0};
        const int64_t dx = taps[(access * 2) % 8];
        const int64_t dy = taps[(access * 2 + 1) % 8];
        const int64_t last = static_cast<int64_t>(elems) - 1;
        for (uint32_t l = 0; l < lanes; ++l) {
            const int64_t linear = static_cast<int64_t>(thread_base + l) +
                                   dx + dy * static_cast<int64_t>(p.rowPitch);
            emit(l, static_cast<uint64_t>(std::clamp<int64_t>(linear, 0,
                                                              last)));
        }
        break;
      }
      case MemPatternKind::Gather:
        for (uint32_t l = 0; l < lanes; ++l) {
            emit(l, mix64((thread_base + l) * 131 + access * 17 + iteration) %
                        elems);
        }
        break;
      case MemPatternKind::Broadcast: {
        const uint64_t index =
            (access + iteration * 13) % std::min<uint64_t>(elems, 1024);
        for (uint32_t l = 0; l < lanes; ++l) {
            emit(l, index);
        }
        break;
      }
    }
}

namespace
{

/** Trace generator for a declarative compute kernel. */
class ComputeCtaGenerator : public CtaGenerator
{
  public:
    explicit ComputeCtaGenerator(ComputeKernelDesc desc)
        : desc_(std::move(desc))
    {
    }

    CtaTrace
    generate(uint32_t cta_index) const override
    {
        const ComputeKernelDesc &d = desc_;
        CtaTrace cta;
        // Instructions per main-loop iteration and per divergent-tail
        // iteration, so each warp's trace is allocated once.
        uint32_t loads = 0;
        for (const MemPattern &p : d.loads) {
            loads += p.count;
        }
        const uint32_t alu_ops = d.intOps + d.fp32Ops + d.sfuOps;
        const size_t per_iter = loads + d.smemStores + d.smemLoads +
                                alu_ops + d.tensorOps +
                                (d.barrierPerIteration ? 2 : 0);
        const size_t per_tail_iter = loads + alu_ops;
        const uint32_t warps = (d.threadsPerCta + kWarpSize - 1) / kWarpSize;
        for (uint32_t w = 0; w < warps; ++w) {
            const uint32_t lanes =
                std::min(kWarpSize, d.threadsPerCta - w * kWarpSize);
            TraceBuilder tb(lanes);
            const uint64_t thread_base =
                static_cast<uint64_t>(cta_index) * d.threadsPerCta +
                w * kWarpSize;

            // Per-lane extra-iteration budgets of the divergent tail
            // below, from a hash; the tail runs while any budget remains.
            std::vector<uint32_t> budget;
            uint32_t tail_iters = 0;
            if (d.divergenceMaxExtraIters > 0) {
                budget.resize(lanes);
                for (uint32_t l = 0; l < lanes; ++l) {
                    budget[l] = static_cast<uint32_t>(
                        mix64(d.divergenceSeed ^
                              ((thread_base + l) *
                               0x9e3779b97f4a7c15ull)) %
                        (d.divergenceMaxExtraIters + 1));
                    tail_iters = std::max(tail_iters, budget[l]);
                }
            }
            tb.reserve(d.iterations * per_iter + tail_iters * per_tail_iter +
                       (d.hasStore ? d.store.count : 0) + 1);

            for (uint32_t it = 0; it < d.iterations; ++it) {
                uint8_t load_reg = 2;
                for (const MemPattern &p : d.loads) {
                    for (uint32_t a = 0; a < p.count; ++a) {
                        std::vector<Addr> addrs;
                        addrs.reserve(lanes);
                        appendPatternAddrs(p, thread_base, lanes, a, it,
                                           ~0u, addrs);
                        tb.mem(Opcode::LDG, load_reg, std::move(addrs),
                               p.accessBytes, DataClass::Compute);
                        load_reg = static_cast<uint8_t>(
                            2 + ((load_reg - 1) % 6));
                    }
                }
                if (d.smemStores > 0) {
                    for (uint32_t s = 0; s < d.smemStores; ++s) {
                        // Conflict-free layout: lane-linear word addresses.
                        tb.memStrided(Opcode::STS, 2,
                                      (w * kWarpSize) * 4 + s * 4096, 4, 4,
                                      DataClass::Compute);
                    }
                }
                if (d.barrierPerIteration) {
                    tb.bar();
                }
                for (uint32_t s = 0; s < d.smemLoads; ++s) {
                    tb.memStrided(Opcode::LDS, 3,
                                  (s % 4) * 1024 + (w % 4) * 128, 4, 4,
                                  DataClass::Compute);
                }
                for (uint32_t i = 0; i < d.intOps; ++i) {
                    tb.alu(Opcode::IMAD, 9, 2, 3);
                }
                for (uint32_t i = 0; i < d.fp32Ops; ++i) {
                    tb.alu(Opcode::FFMA,
                           static_cast<uint8_t>(10 + (i & 3)), 2,
                           static_cast<uint8_t>(10 + ((i + 1) & 3)));
                }
                for (uint32_t i = 0; i < d.sfuOps; ++i) {
                    tb.alu(Opcode::MUFU_SIN, 14, 10);
                }
                for (uint32_t i = 0; i < d.tensorOps; ++i) {
                    tb.alu(Opcode::HMMA, 15, 3, 10);
                }
                if (d.barrierPerIteration) {
                    tb.bar();
                }
            }

            if (d.divergenceMaxExtraIters > 0) {
                // Divergent traversal tail: keep iterating with only the
                // lanes whose budget remains — the warp's active mask
                // shrinks as "rays" terminate. No barriers or shared
                // memory here: diverged lanes cannot rendezvous.
                for (uint32_t e = 0; e < d.divergenceMaxExtraIters; ++e) {
                    uint32_t active_mask = 0;
                    for (uint32_t l = 0; l < lanes; ++l) {
                        if (budget[l] > e) {
                            active_mask |= 1u << l;
                        }
                    }
                    if (active_mask == 0) {
                        break;
                    }
                    tb.mask(active_mask);
                    for (const MemPattern &p : d.loads) {
                        for (uint32_t a = 0; a < p.count; ++a) {
                            std::vector<Addr> addrs;
                            addrs.reserve(__builtin_popcount(active_mask));
                            appendPatternAddrs(p, thread_base, lanes, a,
                                               d.iterations + e,
                                               active_mask, addrs);
                            tb.mem(Opcode::LDG, 4, std::move(addrs),
                                   p.accessBytes, DataClass::Compute);
                        }
                    }
                    for (uint32_t i = 0; i < d.intOps; ++i) {
                        tb.alu(Opcode::IMAD, 9, 2, 3);
                    }
                    for (uint32_t i = 0; i < d.fp32Ops; ++i) {
                        tb.alu(Opcode::FFMA,
                               static_cast<uint8_t>(10 + (i & 3)), 2,
                               static_cast<uint8_t>(10 + ((i + 1) & 3)));
                    }
                    for (uint32_t i = 0; i < d.sfuOps; ++i) {
                        tb.alu(Opcode::MUFU_SIN, 14, 10);
                    }
                }
                tb.mask(0xffffffffu);
            }

            if (d.hasStore) {
                for (uint32_t a = 0; a < d.store.count; ++a) {
                    std::vector<Addr> addrs;
                    addrs.reserve(lanes);
                    appendPatternAddrs(d.store, thread_base, lanes, a, 0,
                                       ~0u, addrs);
                    tb.mem(Opcode::STG, 10, std::move(addrs),
                           d.store.accessBytes, DataClass::Compute);
                }
            }
            tb.exit();
            cta.warps.push_back(tb.take());
        }
        return cta;
    }

  private:
    ComputeKernelDesc desc_;
};

} // namespace

KernelInfo
buildComputeKernel(const ComputeKernelDesc &desc)
{
    fatal_if(desc.ctas == 0 || desc.threadsPerCta == 0,
             "kernel %s has an empty launch", desc.name.c_str());
    KernelInfo info;
    info.name = desc.name;
    info.grid = {desc.ctas, 1, 1};
    info.cta = {desc.threadsPerCta, 1, 1};
    info.regsPerThread = desc.regsPerThread;
    info.smemPerCta = desc.smemPerCta;
    info.source = std::make_shared<ComputeCtaGenerator>(desc);
    return info;
}

std::vector<KernelInfo>
buildVio(AddressSpace &heap, uint32_t frames, uint32_t width,
         uint32_t height)
{
    std::vector<KernelInfo> kernels;
    const uint64_t image_bytes = static_cast<uint64_t>(width) * height;
    const Addr img_a = heap.alloc(image_bytes);
    const Addr img_b = heap.alloc(image_bytes);
    const Addr remap_table = heap.alloc(image_bytes * 8);
    const Addr features = heap.alloc(1 << 16);

    for (uint32_t f = 0; f < frames; ++f) {
        for (uint32_t level = 0; level < 2; ++level) {
            const uint32_t w = width >> level;
            const uint32_t h = height >> level;
            const uint32_t pixels = w * h;
            const uint32_t ctas = std::max(1u, pixels / 256);

            ComputeKernelDesc gauss;
            gauss.name = "vio.gauss.l" + std::to_string(level);
            gauss.ctas = ctas;
            gauss.regsPerThread = 24;
            gauss.fp32Ops = 22;
            gauss.intOps = 10;
            gauss.loads = {{MemPatternKind::Stencil, img_a, pixels, 1, 5,
                            w}};
            gauss.store = {MemPatternKind::Streaming, img_b, pixels, 1, 1,
                           w};
            gauss.hasStore = true;
            kernels.push_back(buildComputeKernel(gauss));

            ComputeKernelDesc remap;
            remap.name = "vio.remap.l" + std::to_string(level);
            remap.ctas = ctas;
            remap.regsPerThread = 28;
            remap.fp32Ops = 12;
            remap.intOps = 14;
            remap.loads = {
                {MemPatternKind::Streaming, remap_table, pixels * 8ull, 8,
                 1, w},
                {MemPatternKind::Gather, img_b, pixels, 1, 4, w}};
            remap.store = {MemPatternKind::Streaming, img_a, pixels, 1, 1,
                           w};
            remap.hasStore = true;
            kernels.push_back(buildComputeKernel(remap));

            ComputeKernelDesc fast;
            fast.name = "vio.fast.l" + std::to_string(level);
            fast.ctas = ctas;
            fast.regsPerThread = 32;
            fast.intOps = 34;   // Bresenham-circle comparisons.
            fast.fp32Ops = 4;
            fast.loads = {{MemPatternKind::Stencil, img_a, pixels, 1, 8,
                           w}};
            fast.store = {MemPatternKind::Streaming, features, 1 << 16, 4,
                          1, w};
            fast.hasStore = true;
            kernels.push_back(buildComputeKernel(fast));

            ComputeKernelDesc flow;
            flow.name = "vio.flow.l" + std::to_string(level);
            flow.ctas = std::max(1u, ctas / 4);  // sparse feature windows
            flow.regsPerThread = 40;
            flow.fp32Ops = 56;
            flow.intOps = 12;
            flow.sfuOps = 2;
            flow.iterations = 2;
            flow.loads = {{MemPatternKind::Stencil, img_a, pixels, 1, 6, w},
                          {MemPatternKind::Stencil, img_b, pixels, 1, 6,
                           w}};
            flow.store = {MemPatternKind::Streaming, features, 1 << 16, 8,
                          1, w};
            flow.hasStore = true;
            kernels.push_back(buildComputeKernel(flow));
        }
    }
    return kernels;
}

std::vector<KernelInfo>
buildHolo(AddressSpace &heap, uint32_t points)
{
    std::vector<KernelInfo> kernels;
    const Addr point_buf = heap.alloc(1 << 16);
    const Addr phase_buf = heap.alloc(1 << 22);

    for (uint32_t p = 0; p < points; ++p) {
        ComputeKernelDesc holo;
        holo.name = "holo.phase." + std::to_string(p);
        holo.ctas = 224;
        holo.regsPerThread = 40;
        holo.iterations = 4;
        // Phase accumulation: long FMA chains plus sin/cos per point.
        holo.fp32Ops = 48;
        holo.sfuOps = 6;
        holo.intOps = 6;
        holo.loads = {{MemPatternKind::Broadcast, point_buf, 1 << 16, 16,
                       1, 1}};
        holo.store = {MemPatternKind::Streaming, phase_buf, 1 << 22, 4, 1,
                      1};
        holo.hasStore = true;
        kernels.push_back(buildComputeKernel(holo));
    }
    return kernels;
}

std::vector<KernelInfo>
buildNn(AddressSpace &heap, uint32_t layers)
{
    std::vector<KernelInfo> kernels;
    const Addr activations = heap.alloc(1 << 22);
    const Addr weights = heap.alloc(1 << 22);
    const Addr output = heap.alloc(1 << 22);

    for (uint32_t l = 0; l < layers; ++l) {
        ComputeKernelDesc conv;
        conv.name = "nn.conv." + std::to_string(l);
        // Batch fixed at two eye images: grids too small to fill the GPU.
        conv.ctas = 16 + 8 * (l % 2);
        conv.threadsPerCta = 256;
        conv.regsPerThread = 64;
        conv.smemPerCta = 32 * 1024;
        conv.iterations = 16;  // k-loop over input-channel tiles
        conv.barrierPerIteration = true;
        // Blocked GEMM: both the weight tile of the current k-step and
        // the (small, batch-2) activation tiles are shared across CTAs —
        // the network's layers fit on-chip, so its DRAM and L1 footprints
        // are tiny and it coexists gently with texture-heavy rendering.
        conv.loads = {
            {MemPatternKind::Broadcast, activations, 256 * 1024, 8, 1, 256},
            {MemPatternKind::Broadcast, weights, 128 * 1024, 8, 2, 256}};
        conv.smemStores = 2;
        conv.smemLoads = 8;
        conv.tensorOps = 8;
        conv.fp32Ops = 12;
        conv.intOps = 8;
        conv.store = {MemPatternKind::Streaming, output, 1 << 22, 8, 2,
                      256};
        conv.hasStore = true;
        kernels.push_back(buildComputeKernel(conv));
    }
    return kernels;
}

std::vector<KernelInfo>
buildTimewarp(AddressSpace &heap, Addr frame_color, uint32_t width,
              uint32_t height)
{
    std::vector<KernelInfo> kernels;
    const uint64_t frame_bytes = 4ull * width * height;
    const Addr warped = heap.alloc(frame_bytes);

    for (uint32_t eye = 0; eye < 2; ++eye) {
        ComputeKernelDesc warp;
        warp.name = "atw.eye" + std::to_string(eye);
        warp.ctas = std::max(1u, width * height / 512);
        warp.threadsPerCta = 256;
        warp.regsPerThread = 32;
        // Per pixel: pose re-projection math (two mat3 transforms plus a
        // perspective divide) and a distortion-corrected gather of the
        // rendered frame.
        warp.fp32Ops = 28;
        warp.intOps = 8;
        warp.sfuOps = 2;
        warp.loads = {{MemPatternKind::Gather, frame_color, frame_bytes, 4,
                       4, width}};
        warp.store = {MemPatternKind::Streaming, warped, frame_bytes, 4, 1,
                      width};
        warp.hasStore = true;
        kernels.push_back(buildComputeKernel(warp));
    }
    return kernels;
}

} // namespace crisp
