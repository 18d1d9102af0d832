#include "graphics/pipeline.hpp"

#include <algorithm>
#include <set>

#include "common/logging.hpp"
#include "graphics/sampler.hpp"
#include "isa/trace_builder.hpp"
#include "telemetry/self_profiler.hpp"

namespace crisp
{

uint64_t
RenderSubmission::totalVsInvocations() const
{
    uint64_t total = 0;
    for (const auto &r : reports) {
        total += r.vsInvocations;
    }
    return total;
}

uint64_t
RenderSubmission::totalFragments() const
{
    uint64_t total = 0;
    for (const auto &r : reports) {
        total += r.fragments;
    }
    return total;
}

namespace
{

/** Fixed key light used by the functional shading of all scenes. */
const Vec3 kLightDir = Vec3{0.45f, 0.8f, 0.35f}.normalized();

/** Per-vertex data after functional vertex shading. */
struct ShadedVertex
{
    Vec4 clip;
    Vec2 uv;
    Vec3 worldNormal;
};

/** Data shared by a drawcall's vertex-shader trace generator. */
struct VsKernelData
{
    std::vector<VertexBatch> batches;
    Addr vbAddr = 0;
    Addr ibAddr = 0;
    Addr attrBase = 0;
    Addr uniformAddr = 0;
    Addr instanceBufAddr = 0;
    uint32_t instanceCount = 1;
    uint32_t batchSize = kDefaultVertexBatchSize;
    ShaderCost cost;

    /** Output slot stride: two 16 B attribute stores per vertex. */
    static constexpr uint32_t kOutStride = 32;

    uint64_t slotsPerInstance() const
    {
        return static_cast<uint64_t>(batches.size()) * batchSize;
    }
};

/** Vertex-shader trace generator: one CTA per (instance, batch). */
class VsCtaGenerator : public CtaGenerator
{
  public:
    explicit VsCtaGenerator(std::shared_ptr<const VsKernelData> data)
        : data_(std::move(data))
    {
    }

    CtaTrace
    generate(uint32_t cta_index) const override
    {
        const VsKernelData &d = *data_;
        const uint32_t n_batches = static_cast<uint32_t>(d.batches.size());
        const uint32_t instance = cta_index / n_batches;
        const uint32_t batch_id = cta_index % n_batches;
        const VertexBatch &batch = d.batches[batch_id];
        const uint64_t slot_base =
            instance * d.slotsPerInstance() +
            static_cast<uint64_t>(batch_id) * d.batchSize;

        CtaTrace cta;
        const uint32_t count =
            static_cast<uint32_t>(batch.uniqueVerts.size());
        for (uint32_t first = 0; first < count; first += kWarpSize) {
            const uint32_t lanes = std::min(kWarpSize, count - first);
            TraceBuilder tb(lanes);
            // LDC, three LDGs, the instance LDG, the ALU ops, two STGs
            // and EXIT.
            tb.reserve(7 + (d.instanceCount > 1 ? 1 : 0) + d.cost.intOps +
                       d.cost.fp32Ops);

            // Uniforms (combined MVP) through the constant cache.
            tb.memUniform(Opcode::LDC, 1, d.uniformAddr, 16,
                          DataClass::Pipeline);

            // Primitive distributor index fetch (recreated traffic).
            std::vector<Addr> idx_addrs;
            std::vector<Addr> v0_addrs;
            std::vector<Addr> v1_addrs;
            idx_addrs.reserve(lanes);
            v0_addrs.reserve(lanes);
            v1_addrs.reserve(lanes);
            for (uint32_t l = 0; l < lanes; ++l) {
                const uint32_t slot = first + l;
                idx_addrs.push_back(d.ibAddr +
                                    4ull * batch.firstUsePos[slot]);
                const Addr v = d.vbAddr +
                               static_cast<Addr>(batch.uniqueVerts[slot]) *
                                   Vertex::kStrideBytes;
                v0_addrs.push_back(v);
                v1_addrs.push_back(v + 16);
            }
            tb.mem(Opcode::LDG, 2, std::move(idx_addrs), 4,
                   DataClass::Pipeline);
            tb.mem(Opcode::LDG, 3, std::move(v0_addrs), 16,
                   DataClass::Pipeline);
            tb.mem(Opcode::LDG, 4, std::move(v1_addrs), 16,
                   DataClass::Pipeline);

            if (d.instanceCount > 1) {
                // Per-instance transform fetch: streaming pattern unique to
                // instanced draws (Planets, §V-A).
                tb.memUniform(Opcode::LDG, 9,
                              d.instanceBufAddr + 64ull * instance, 16,
                              DataClass::Pipeline);
            }

            // Address math then the transform FMA chains.
            for (uint32_t i = 0; i < d.cost.intOps; ++i) {
                tb.alu(Opcode::IMAD, 5, 2, 1);
            }
            for (uint32_t i = 0; i < d.cost.fp32Ops; ++i) {
                tb.alu(Opcode::FFMA, static_cast<uint8_t>(6 + (i & 1)),
                       (i & 1) ? 3 : 4, 1);
            }

            // Post-transform attributes to the L2-backed attribute buffer
            // (consumed by rasterizers on other SMs).
            std::vector<Addr> o0;
            std::vector<Addr> o1;
            o0.reserve(lanes);
            o1.reserve(lanes);
            for (uint32_t l = 0; l < lanes; ++l) {
                const Addr out = d.attrBase + (slot_base + first + l) *
                                                  VsKernelData::kOutStride;
                o0.push_back(out);
                o1.push_back(out + 16);
            }
            tb.mem(Opcode::STG, 6, std::move(o0), 16, DataClass::Pipeline);
            tb.mem(Opcode::STG, 7, std::move(o1), 16, DataClass::Pipeline);
            tb.exit();
            cta.warps.push_back(tb.take());
        }
        return cta;
    }

  private:
    std::shared_ptr<const VsKernelData> data_;
};

/** Data shared by a drawcall's fragment-shader trace generator. */
struct FsKernelData
{
    /** CTAs as lists of warps, each warp a list of fragments. */
    std::vector<std::vector<std::vector<Fragment>>> ctas;
    const Material *material = nullptr;
    /** Per-triangle attribute addresses (3 shaded vertices each). */
    std::vector<std::array<Addr, 3>> triAttrAddrs;
    Addr uniformAddr = 0;
    bool lodEnabled = true;
    bool emitDepthTraffic = false;
    ShaderCost cost;
    Addr colorBase = 0;
    Addr depthBase = 0;
    uint32_t fbWidth = 0;
};

/** Fragment-shader trace generator: one CTA per packed warp group. */
class FsCtaGenerator : public CtaGenerator
{
  public:
    explicit FsCtaGenerator(std::shared_ptr<const FsKernelData> data)
        : data_(std::move(data))
    {
    }

    CtaTrace
    generate(uint32_t cta_index) const override
    {
        const FsKernelData &d = *data_;
        panic_if(cta_index >= d.ctas.size(), "FS CTA index out of range");
        CtaTrace cta;
        for (const auto &warp_frags : d.ctas[cta_index]) {
            cta.warps.push_back(buildWarp(d, warp_frags));
        }
        return cta;
    }

  private:
    static WarpTrace
    buildWarp(const FsKernelData &d, const std::vector<Fragment> &frags)
    {
        const uint32_t lanes = static_cast<uint32_t>(frags.size());
        const auto &textures = d.material->textures;
        const uint32_t n_tex = static_cast<uint32_t>(textures.size());
        const TexFilter filter = d.material->filter;
        const uint32_t corners = filter == TexFilter::Trilinear ? 8
            : filter == TexFilter::Bilinear ? 4
                                            : 1;
        TraceBuilder tb(lanes);
        // LDC, three attribute LDGs, the ALU ops, a TEX per corner per
        // texture, the depth LDG/STG pair, the color STG and EXIT.
        tb.reserve(6 + d.cost.intOps + d.cost.fp32Ops + d.cost.sfuOps +
                   n_tex * corners + (d.emitDepthTraffic ? 2 : 0));

        tb.memUniform(Opcode::LDC, 1, d.uniformAddr, 16,
                      DataClass::Pipeline);

        // Rasterizer-side attribute reads: the redistribution traffic of
        // post-cull primitives through the L2 (§III). Attributes are
        // fetched once per distinct triangle covered by the warp — the
        // raster unit holds per-primitive parameters on-chip, so the
        // traffic scales with primitives, not fragments.
        std::vector<uint32_t> tris;
        tris.reserve(lanes);
        for (const Fragment &f : frags) {
            if (std::find(tris.begin(), tris.end(), f.tri) == tris.end()) {
                tris.push_back(f.tri);
            }
        }
        if (tris.size() > lanes) {
            tris.resize(lanes);
        }
        const uint32_t tri_mask = tris.size() >= 32
            ? 0xffffffffu
            : ((1u << tris.size()) - 1);
        for (int k = 0; k < 3; ++k) {
            std::vector<Addr> addrs;
            addrs.reserve(tris.size());
            for (uint32_t t : tris) {
                addrs.push_back(d.triAttrAddrs[t][k]);
            }
            tb.mask(tri_mask);
            tb.mem(Opcode::LDG, static_cast<uint8_t>(2 + k),
                   std::move(addrs), 16, DataClass::Pipeline);
        }
        tb.mask(0xffffffffu);

        // Interpolation setup.
        for (uint32_t i = 0; i < d.cost.intOps; ++i) {
            tb.alu(Opcode::IMAD, 5, 2, 3);
        }

        const uint32_t alu_per_tex =
            n_tex > 0 ? d.cost.fp32Ops / (n_tex + 1) : d.cost.fp32Ops;

        uint32_t fp_left = d.cost.fp32Ops;
        std::vector<Addr> fp;
        fp.reserve(corners);
        for (uint32_t t = 0; t < n_tex; ++t) {
            const Texture2D &tex = *textures[t];
            // Per-lane footprints: bilinear filtering fetches all four
            // corner texels (one TEX instruction per corner), which is
            // where the texture unit's merging and the L1's reuse of
            // overlapping footprints come from.
            std::vector<std::vector<Addr>> per_corner(corners);
            for (std::vector<Addr> &addrs : per_corner) {
                addrs.reserve(lanes);
            }
            for (const Fragment &f : frags) {
                const float lod = d.lodEnabled
                    ? Sampler::computeLod(tex, f.duvdx, f.duvdy)
                    : 0.0f;
                fp.clear();
                Sampler::footprint(tex, f.uv, lod, f.layer, filter, fp);
                for (uint32_t c = 0; c < corners; ++c) {
                    per_corner[c].push_back(fp[c]);
                }
            }
            for (uint32_t c = 0; c < corners; ++c) {
                tb.mem(Opcode::TEX, static_cast<uint8_t>(10 + (t & 7)),
                       std::move(per_corner[c]),
                       static_cast<uint8_t>(texFormatBytes(tex.format())),
                       DataClass::Texture);
            }
            const uint32_t chunk = std::min(alu_per_tex, fp_left);
            for (uint32_t i = 0; i < chunk; ++i) {
                tb.alu(Opcode::FFMA, static_cast<uint8_t>(6 + (i & 1)),
                       static_cast<uint8_t>(10 + (t & 7)), 5);
            }
            fp_left -= chunk;
        }
        for (uint32_t i = 0; i < fp_left; ++i) {
            tb.alu(Opcode::FFMA, static_cast<uint8_t>(6 + (i & 1)), 7, 1);
        }
        for (uint32_t i = 0; i < d.cost.sfuOps; ++i) {
            tb.alu(Opcode::MUFU_EX2, 8, 6);
        }

        if (d.emitDepthTraffic) {
            // Early-Z read-modify-write against the depth buffer.
            std::vector<Addr> depth_addrs;
            depth_addrs.reserve(lanes);
            for (const Fragment &f : frags) {
                depth_addrs.push_back(
                    d.depthBase +
                    4ull * (static_cast<Addr>(f.y) * d.fbWidth + f.x));
            }
            std::vector<Addr> depth_w = depth_addrs;
            tb.mem(Opcode::LDG, 9, std::move(depth_addrs), 4,
                   DataClass::Pipeline);
            tb.mem(Opcode::STG, 9, std::move(depth_w), 4,
                   DataClass::Pipeline);
        }

        // Color output to the framebuffer (ROP blending skipped, §III).
        std::vector<Addr> color_addrs;
        color_addrs.reserve(lanes);
        for (const Fragment &f : frags) {
            color_addrs.push_back(
                d.colorBase +
                4ull * (static_cast<Addr>(f.y) * d.fbWidth + f.x));
        }
        tb.mem(Opcode::STG, 8, std::move(color_addrs), 4,
               DataClass::Pipeline);
        tb.exit();
        return tb.take();
    }

    std::shared_ptr<const FsKernelData> data_;
};

/** Functional fragment shading for the image output. */
Texel
shadeFragment(const Material &mat, const Fragment &frag, float face_shade,
              bool lod_enabled, TexFilter filter)
{
    auto sample_map = [&](uint32_t t) {
        const Texture2D &tex = *mat.textures[t];
        const float lod = lod_enabled
            ? Sampler::computeLod(tex, frag.duvdx, frag.duvdy)
            : 0.0f;
        return Sampler::sample(tex, frag.uv, lod, frag.layer, filter);
    };

    Texel out;
    if (mat.kind == ShaderKind::Basic) {
        const Texel albedo = sample_map(0);
        const float light = 0.25f + 0.75f * face_shade;
        out.r = albedo.r * light;
        out.g = albedo.g * light;
        out.b = albedo.b * light;
        return out;
    }

    // PBR: combine the 8 maps into a plausible image. Map order:
    // 0 irradiance, 1 BRDF LUT, 2 albedo, 3 normal, 4 prefilter, 5 AO,
    // 6 metallic, 7 roughness.
    const Texel irr = sample_map(0);
    const Texel albedo = sample_map(2);
    const Texel prefilter = sample_map(4);
    const Texel ao = sample_map(5);
    const Texel metallic = sample_map(6);
    const Texel rough = sample_map(7);
    const float direct = 0.2f + 0.8f * face_shade;
    const float spec = (1.0f - rough.r) * (0.3f + 0.7f * metallic.r);
    out.r = albedo.r * direct * ao.r + irr.r * 0.15f + prefilter.r * spec *
            0.25f;
    out.g = albedo.g * direct * ao.r + irr.g * 0.15f + prefilter.g * spec *
            0.25f;
    out.b = albedo.b * direct * ao.r + irr.b * 0.15f + prefilter.b * spec *
            0.25f;
    return out;
}

} // namespace

RenderPipeline::RenderPipeline(const PipelineConfig &cfg, AddressSpace &heap)
    : cfg_(cfg), heap_(heap), fb_(cfg.width, cfg.height, heap)
{
    fatal_if(cfg_.batchSize < 3, "batch size must fit a triangle");
    fatal_if(cfg_.maxWarpsPerCta == 0, "need at least one warp per CTA");
}

RenderSubmission
RenderPipeline::submit(const Scene &scene)
{
    telemetry::SelfProfiler::Scope prof_scope(profiler_,
                                              telemetry::Component::Raster);
    RenderSubmission out;
    fb_.clear();

    uint32_t draw_index = 0;
    for (const DrawCall &draw : scene.draws) {
        fatal_if(draw.mesh == nullptr || draw.material == nullptr,
                 "drawcall %s missing mesh or material", draw.name.c_str());
        const Mesh &mesh = *draw.mesh;
        const Material &mat = *draw.material;
        const uint32_t instances = std::max(1u, draw.instanceCount);
        fatal_if(instances > 1 && draw.instanceModels.size() != instances,
                 "instanced drawcall %s needs per-instance transforms",
                 draw.name.c_str());

        DrawcallReport report;
        report.name = draw.name;
        report.drawIndex = draw_index++;
        report.texturesPerFragment =
            static_cast<uint32_t>(mat.textures.size());

        // --- Stage 2: vertex batching with in-batch dedup ---------------
        auto vs_data = std::make_shared<VsKernelData>();
        vs_data->batches = buildVertexBatches(mesh.indices(),
                                              cfg_.batchSize);
        vs_data->vbAddr = mesh.vbAddr();
        vs_data->ibAddr = mesh.ibAddr();
        vs_data->uniformAddr = heap_.alloc(256);
        vs_data->instanceBufAddr = draw.instanceBufAddr;
        vs_data->instanceCount = instances;
        vs_data->batchSize = cfg_.batchSize;
        vs_data->cost = ShaderCost::vertex();
        const uint64_t total_slots =
            vs_data->slotsPerInstance() * instances;
        vs_data->attrBase =
            heap_.alloc(total_slots * VsKernelData::kOutStride);

        report.batches = vs_data->batches.size() * instances;

        auto fs_data = std::make_shared<FsKernelData>();
        fs_data->material = &mat;
        fs_data->uniformAddr = vs_data->uniformAddr;
        fs_data->lodEnabled = cfg_.lodEnabled;
        fs_data->cost = ShaderCost::fragment(mat.kind);
        fs_data->cost.fp32Ops += mat.extraFragmentAlu;
        fs_data->colorBase = fb_.colorAddr(0, 0);
        fs_data->depthBase = fb_.depthAddr(0, 0);
        fs_data->emitDepthTraffic = cfg_.emitDepthTraffic;
        fs_data->fbWidth = fb_.width();

        Rasterizer rast(fb_, cfg_.tileSize);
        std::vector<float> tri_shade;

        // --- Stages 3-5: vertex shading, assembly/cull, rasterization ---
        for (uint32_t inst = 0; inst < instances; ++inst) {
            const Mat4 &model = instances > 1 ? draw.instanceModels[inst]
                                              : draw.model;
            const Mat4 mvp = scene.camera.proj * scene.camera.view * model;
            const uint32_t layer =
                inst < draw.instanceLayers.size() ? draw.instanceLayers[inst]
                                                  : 0;
            for (uint32_t b = 0;
                 b < static_cast<uint32_t>(vs_data->batches.size()); ++b) {
                const VertexBatch &batch = vs_data->batches[b];
                report.vsInvocations += batch.uniqueVerts.size();
                report.vsThreadsLaunched +=
                    ((batch.uniqueVerts.size() + kWarpSize - 1) /
                     kWarpSize) * kWarpSize;

                std::vector<ShadedVertex> shaded(batch.uniqueVerts.size());
                for (size_t s = 0; s < batch.uniqueVerts.size(); ++s) {
                    const Vertex &v = mesh.vertices()[batch.uniqueVerts[s]];
                    shaded[s].clip = mvp * Vec4(v.position, 1.0f);
                    shaded[s].uv = v.uv;
                    // Rotation-only normal transform approximation.
                    const Vec4 n4 = model * Vec4(v.normal, 0.0f);
                    shaded[s].worldNormal = n4.xyz().normalized();
                }

                const uint64_t slot_base =
                    inst * vs_data->slotsPerInstance() +
                    static_cast<uint64_t>(b) * cfg_.batchSize;
                for (const auto &tri : batch.tris) {
                    const uint32_t tri_id =
                        static_cast<uint32_t>(fs_data->triAttrAddrs.size());
                    std::array<Addr, 3> attrs{};
                    Vec4 clip[3];
                    Vec2 uv[3];
                    Vec3 nrm_sum;
                    for (int k = 0; k < 3; ++k) {
                        clip[k] = shaded[tri[k]].clip;
                        uv[k] = shaded[tri[k]].uv;
                        nrm_sum = nrm_sum + shaded[tri[k]].worldNormal;
                        attrs[k] = vs_data->attrBase +
                                   (slot_base + tri[k]) *
                                       VsKernelData::kOutStride;
                    }
                    fs_data->triAttrAddrs.push_back(attrs);
                    tri_shade.push_back(std::max(
                        0.0f, nrm_sum.normalized().dot(kLightDir)));
                    rast.submit(clip, uv, tri_id, layer);
                }
            }
        }
        report.raster = rast.stats();

        // --- Stage 6: fragment warp formation ----------------------------
        std::vector<TileBin> bins = rast.takeBins();
        std::vector<std::vector<Fragment>> warps;
        for (TileBin &bin : bins) {
            // Sort into quad-major order so warps hold whole quads.
            std::stable_sort(bin.frags.begin(), bin.frags.end(),
                             [](const Fragment &a, const Fragment &b) {
                                 const uint32_t qa =
                                     (a.y / 2) * 65536u + (a.x / 2);
                                 const uint32_t qb =
                                     (b.y / 2) * 65536u + (b.x / 2);
                                 if (qa != qb) {
                                     return qa < qb;
                                 }
                                 return (a.y % 2) * 2 + (a.x % 2) <
                                        (b.y % 2) * 2 + (b.x % 2);
                             });
            for (size_t first = 0; first < bin.frags.size();
                 first += kWarpSize) {
                const size_t last =
                    std::min(bin.frags.size(), first + kWarpSize);
                warps.emplace_back(bin.frags.begin() + first,
                                   bin.frags.begin() + last);
            }
        }
        report.fragments = report.raster.fragsGenerated -
                           report.raster.fragsEarlyZKilled;
        report.fsWarps = warps.size();

        // Pack warps into CTAs of maxWarpsPerCta.
        for (size_t first = 0; first < warps.size();
             first += cfg_.maxWarpsPerCta) {
            const size_t last =
                std::min(warps.size(), first + cfg_.maxWarpsPerCta);
            fs_data->ctas.emplace_back(warps.begin() + first,
                                       warps.begin() + last);
        }
        report.fsCtas = fs_data->ctas.size();

        // Functional shading runs at the first use of the colors. CTAs,
        // warps, fragments is the write order: tile bin by tile bin,
        // quad-major within a bin.
        if (!fs_data->ctas.empty()) {
            fb_.deferColor(
                [data = std::shared_ptr<const FsKernelData>(fs_data),
                 shade = std::move(tri_shade),
                 filter = cfg_.functionalFilter](
                    const Framebuffer::ColorSink &write) {
                    for (const auto &cta : data->ctas) {
                        for (const auto &warp : cta) {
                            for (const Fragment &f : warp) {
                                write(f.x, f.y,
                                      shadeFragment(*data->material, f,
                                                    shade[f.tri],
                                                    data->lodEnabled,
                                                    filter));
                            }
                        }
                    }
                });
        }

        // --- Kernel construction -----------------------------------------
        const uint32_t drawcall_id = ++nextDrawcall_;
        KernelInfo vs_kernel;
        vs_kernel.name = draw.name + ".vs";
        vs_kernel.drawcall = drawcall_id;
        vs_kernel.grid = {static_cast<uint32_t>(vs_data->batches.size()) *
                              instances,
                          1, 1};
        vs_kernel.cta = {cfg_.batchSize, 1, 1};
        vs_kernel.regsPerThread = vs_data->cost.registers;
        vs_kernel.source =
            std::make_shared<VsCtaGenerator>(std::move(vs_data));
        report.vsKernelIndex = static_cast<uint32_t>(out.kernels.size());
        out.kernels.push_back(std::move(vs_kernel));
        out.dependsOn.push_back(-1);

        if (!fs_data->ctas.empty()) {
            KernelInfo fs_kernel;
            fs_kernel.name = draw.name + ".fs";
            fs_kernel.drawcall = drawcall_id;
            fs_kernel.grid = {static_cast<uint32_t>(fs_data->ctas.size()), 1,
                              1};
            fs_kernel.cta = {cfg_.maxWarpsPerCta * kWarpSize, 1, 1};
            fs_kernel.regsPerThread = fs_data->cost.registers;
            fs_kernel.source =
                std::make_shared<FsCtaGenerator>(std::move(fs_data));
            report.fsKernelIndex = static_cast<uint32_t>(out.kernels.size());
            out.kernels.push_back(std::move(fs_kernel));
            out.dependsOn.push_back(
                static_cast<int>(report.vsKernelIndex));
        }

        out.reports.push_back(std::move(report));
    }
    return out;
}

Histogram
texLinesPerCtaHistogram(const KernelInfo &kernel, uint64_t max_bucket,
                        uint32_t max_ctas)
{
    Histogram hist(max_bucket);
    const uint32_t total = kernel.numCtas();
    const uint32_t limit =
        max_ctas == 0 ? total : std::min(total, max_ctas);
    for (uint32_t c = 0; c < limit; ++c) {
        const CtaTrace cta = kernel.source->generate(c);
        std::set<Addr> lines;
        for (const auto &warp : cta.warps) {
            for (const auto &in : warp.instrs) {
                if (in.opcode != Opcode::TEX) {
                    continue;
                }
                for (Addr a : coalesceToLines(in)) {
                    lines.insert(a);
                }
            }
        }
        hist.add(lines.size());
    }
    return hist;
}

} // namespace crisp
