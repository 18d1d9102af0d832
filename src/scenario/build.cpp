#include "scenario/build.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <span>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp::scenario
{

GpuConfig
gpuConfigFor(const Scenario &sc)
{
    GpuConfig cfg = sc.gpu.preset == "orin" ? GpuConfig::jetsonOrin()
                                            : GpuConfig::rtx3070();
    if (sc.gpu.numSms != 0) {
        cfg.numSms = sc.gpu.numSms;
        cfg.finalize();
    }
    return cfg;
}

namespace
{

/** Explicit-scene state carried across frames (deform retargeting). */
struct GfxBuild
{
    Scene *scene = nullptr;
    const Mesh *deformSrc = nullptr;
    std::vector<size_t> deformDraws;  ///< scene->draws indices to retarget.
};

Mesh
makeMesh(const MeshNode &m, AddressSpace &heap)
{
    if (m.type == "plane") {
        return Mesh::makePlane(m.name, m.quads, m.size, m.uvTile, heap);
    }
    if (m.type == "sphere") {
        return Mesh::makeSphere(m.name, m.stacks, m.slices, m.radius, heap);
    }
    if (m.type == "box") {
        return Mesh::makeBox(m.name, m.extent, heap, m.uvTile);
    }
    if (m.type == "cylinder") {
        return Mesh::makeCylinder(m.name, m.slices, m.radius, m.height,
                                  heap, m.uvTile);
    }
    fatal_if(m.type != "rock", "unvalidated mesh type %s", m.type.c_str());
    return Mesh::makeRock(m.name, m.stacks, m.slices, m.radius, m.seed,
                          heap);
}

Scene
buildExplicitScene(const Scenario &sc, AddressSpace &heap, GfxBuild &gb)
{
    const GraphicsDesc &g = sc.graphics;
    Scene scene;
    scene.name = sc.name;
    scene.camera.eye = g.camera.eye;
    scene.camera.view =
        Mat4::lookAt(g.camera.eye, g.camera.lookAt, {0.0f, 1.0f, 0.0f});
    scene.camera.proj = Mat4::perspective(
        g.camera.fovDeg * static_cast<float>(M_PI) / 180.0f,
        static_cast<float>(g.width) / static_cast<float>(g.height), 0.1f,
        200.0f);

    std::map<std::string, Mesh *> meshes;
    for (const MeshNode &m : g.meshes) {
        meshes[m.name] = scene.addMesh(makeMesh(m, heap));
    }
    std::map<std::string, std::pair<Material *, uint32_t>> materials;
    for (const MaterialNode &mn : g.materials) {
        Material *p;
        if (mn.shader == "pbr") {
            p = addPbrMaterial(scene, heap, mn.name, mn.texDim, mn.seed);
        } else if (mn.layers > 1) {
            // Layered array texture (the Planets asteroid idiom): one
            // texture with mn.layers layers, instances select a layer.
            Material mat;
            mat.name = mn.name;
            mat.kind = ShaderKind::Basic;
            mat.extraFragmentAlu = mn.extraAlu;
            mat.textures.push_back(
                scene.addTexture(std::make_unique<Texture2D>(
                    mn.name + ".array", mn.texDim, mn.texDim,
                    TexFormat::RGBA8, heap, mn.layers, true, mn.seed)));
            p = scene.addMaterial(std::move(mat));
        } else {
            p = addBasicMaterial(scene, heap, mn.name, mn.texDim, mn.seed,
                                 mn.extraAlu);
        }
        materials[mn.name] = {p, mn.layers};
    }

    for (const DrawNode &dn : g.draws) {
        DrawCall d;
        d.name = dn.name;
        d.mesh = meshes.at(dn.mesh);
        const auto &[mat, layers] = materials.at(dn.material);
        d.material = mat;
        d.model = Mat4::translation(dn.translate) *
                  Mat4::rotationY(dn.rotateYDeg *
                                  static_cast<float>(M_PI) / 180.0f) *
                  Mat4::scaling({dn.scale, dn.scale, dn.scale});
        if (dn.instances > 1) {
            d.instanceCount = dn.instances;
            d.instanceBufAddr = heap.alloc(64ull * dn.instances);
            Rng rng(dn.instanceSeed);
            for (uint32_t i = 0; i < dn.instances; ++i) {
                const float angle = 2.0f * static_cast<float>(M_PI) *
                                    static_cast<float>(i) / dn.instances;
                const float radius =
                    dn.ringRadius *
                    (1.0f + 0.4f * static_cast<float>(rng.nextDouble()));
                const float y =
                    1.5f * static_cast<float>(rng.nextDouble() - 0.5);
                const float s =
                    0.5f + 1.2f * static_cast<float>(rng.nextDouble());
                d.instanceModels.push_back(
                    d.model *
                    Mat4::translation({radius * std::cos(angle), y,
                                       radius * std::sin(angle)}) *
                    Mat4::rotationY(angle * 3.0f) *
                    Mat4::scaling({s, s, s}));
                d.instanceLayers.push_back(i % layers);
            }
        }
        if (g.deform.enabled && dn.mesh == g.deform.mesh) {
            gb.deformDraws.push_back(scene.draws.size());
        }
        scene.draws.push_back(std::move(d));
    }
    if (g.deform.enabled) {
        gb.deformSrc = meshes.at(g.deform.mesh);
    }
    return scene;
}

/** Scene + pipeline, in that order (the scene allocates first). */
GfxBuild
prepareGraphics(const Scenario &sc, AddressSpace &heap, Materialized &out)
{
    const GraphicsDesc &g = sc.graphics;
    GfxBuild gb;
    if (g.preset.empty()) {
        auto scene = std::make_unique<Scene>();
        *scene = buildExplicitScene(sc, heap, gb);
        out.scenes.push_back(std::move(scene));
    } else {
        out.scenes.push_back(std::make_unique<Scene>(
            buildSceneByName(g.preset, heap)));
    }
    gb.scene = out.scenes.back().get();

    PipelineConfig pc;
    pc.width = g.width;
    pc.height = g.height;
    pc.lodEnabled = g.lod;
    if (g.batchSize != 0) {
        pc.batchSize = g.batchSize;
    }
    out.pipeline = std::make_unique<RenderPipeline>(pc, heap);
    return gb;
}

/**
 * Functionally render frame @p f. With deform animation the deforming
 * mesh is re-tessellated at time f*step into fresh heap allocations and
 * its draws retargeted — every frame re-uploads the deformed geometry.
 */
RenderSubmission
renderFrame(const Scenario &sc, GfxBuild &gb, uint32_t f,
            AddressSpace &heap, RenderPipeline &pipeline)
{
    const DeformNode &d = sc.graphics.deform;
    if (d.enabled) {
        Mesh *frame_mesh = gb.scene->addMesh(Mesh::deformed(
            d.mesh + "@f" + std::to_string(f), *gb.deformSrc,
            d.step * static_cast<float>(f), d.amplitude, d.frequency,
            heap));
        for (size_t i : gb.deformDraws) {
            gb.scene->draws[i].mesh = frame_mesh;
        }
    }
    return pipeline.submit(*gb.scene);
}

MemPatternKind
patternKind(const std::string &name)
{
    if (name == "stencil") {
        return MemPatternKind::Stencil;
    }
    if (name == "gather") {
        return MemPatternKind::Gather;
    }
    if (name == "broadcast") {
        return MemPatternKind::Broadcast;
    }
    return MemPatternKind::Streaming;
}

std::vector<KernelInfo>
buildPresetCompute(const ComputeDesc &cd, AddressSpace &heap,
                   RenderPipeline *pipeline)
{
    if (cd.preset == "VIO") {
        return buildVio(heap, cd.frames, cd.width, cd.height);
    }
    if (cd.preset == "HOLO") {
        return buildHolo(heap, cd.points);
    }
    if (cd.preset == "NN") {
        return buildNn(heap, cd.layers);
    }
    fatal_if(cd.preset != "ATW", "unvalidated compute preset %s",
             cd.preset.c_str());
    const Addr color = pipeline
        ? pipeline->framebuffer().colorAddr(0, 0)
        : heap.alloc(4ull * cd.width * cd.height);
    return buildTimewarp(heap, color, cd.width, cd.height);
}

/** One KernelInfo per explicit kernel node, buffers resolved to heap.
 *  @p buffer_heap (when set) picks a per-buffer heap instead of @p heap —
 *  the live path homing "device"-tagged buffers in other windows. */
std::vector<KernelInfo>
buildExplicitKernels(const ComputeDesc &cd, AddressSpace &heap,
                     RenderPipeline *pipeline,
                     const std::function<AddressSpace &(const BufferNode &)>
                         &buffer_heap = {})
{
    struct Region
    {
        Addr base = 0;
        uint64_t bytes = 0;
    };
    std::map<std::string, Region> regions;
    for (const BufferNode &b : cd.buffers) {
        AddressSpace &h = buffer_heap ? buffer_heap(b) : heap;
        regions[b.name] = {h.alloc(b.bytes), b.bytes};
    }
    auto resolve = [&](const LoadNode &ln) {
        MemPattern p;
        p.kind = patternKind(ln.pattern);
        if (ln.buffer == "frame_color" && !regions.count("frame_color")) {
            fatal_if(!pipeline, "frame_color needs a graphics side");
            p.base = pipeline->framebuffer().colorAddr(0, 0);
            p.regionBytes = 4ull * pipeline->config().width *
                            pipeline->config().height;
        } else {
            const Region &r = regions.at(ln.buffer);
            p.base = r.base;
            p.regionBytes = r.bytes;
        }
        p.accessBytes = static_cast<uint8_t>(ln.accessBytes);
        p.count = ln.count;
        p.rowPitch = ln.rowPitch;
        return p;
    };

    std::vector<KernelInfo> infos;
    infos.reserve(cd.kernels.size());
    for (const KernelNode &kn : cd.kernels) {
        ComputeKernelDesc d;
        d.name = kn.name;
        d.ctas = kn.ctas;
        d.threadsPerCta = kn.threadsPerCta;
        d.regsPerThread = kn.regsPerThread;
        d.smemPerCta = kn.smemPerCta;
        d.iterations = kn.iterations;
        d.fp32Ops = kn.fp32Ops;
        d.intOps = kn.intOps;
        d.sfuOps = kn.sfuOps;
        d.tensorOps = kn.tensorOps;
        d.smemLoads = kn.smemLoads;
        d.smemStores = kn.smemStores;
        d.barrierPerIteration = kn.barrierPerIteration;
        d.divergenceMaxExtraIters = kn.divergenceExtraIters;
        d.divergenceSeed = kn.divergenceSeed;
        for (const LoadNode &ln : kn.loads) {
            d.loads.push_back(resolve(ln));
        }
        if (kn.hasStore) {
            d.store = resolve(kn.store);
            d.hasStore = true;
        }
        infos.push_back(buildComputeKernel(d));
    }
    return infos;
}

/** Replay the explicit kernel list once per burst at the schedule's
 *  arrival offsets (periodic or Poisson). */
void
enqueueExplicit(Gpu &gpu, StreamId cmp, const ComputeDesc &cd,
                const std::vector<KernelInfo> &infos)
{
    const std::vector<Cycle> bases =
        burstBases(cd.schedule, gpu.config().coreClockMhz);
    for (uint32_t b = 0; b < cd.schedule.bursts; ++b) {
        const Cycle burst_base = bases[b];
        std::map<std::string, KernelId> ids;
        for (size_t i = 0; i < cd.kernels.size(); ++i) {
            const KernelNode &kn = cd.kernels[i];
            KernelId id;
            if (kn.hasAfter) {
                id = gpu.enqueueKernelAfter(cmp, infos[i], ids.at(kn.after),
                                            kn.delay);
            } else {
                id = gpu.enqueueKernelAt(cmp, infos[i], burst_base + kn.at);
            }
            ids[kn.name] = id;
        }
    }
}

/**
 * The submission sequence both public entry points share: scene and
 * pipeline, graphics stream, compute stream, every frame, the compute
 * work, then @p scheme on the device both streams share (if they do).
 * The graphics side lands on devices[r.gfxDevice] and allocates from
 * heaps[r.gfxDevice], the compute side likewise on r.cmpDevice; a
 * buffer's own "device" field homes it in that device's heap instead.
 * Fills r.gfx and r.cmp.
 */
void
submitOn(const Scenario &sc, const std::vector<Gpu *> &devices,
         std::span<AddressSpace> heaps, PartitionScheme scheme,
         MultiSubmitResult &r, Materialized &out)
{
    Gpu &ggpu = *devices[r.gfxDevice];
    AddressSpace &gheap = heaps[r.gfxDevice];
    GfxBuild gb;
    if (sc.graphics.present) {
        gb = prepareGraphics(sc, gheap, out);
        // Frames render functionally right here, at submit time, so the
        // graphics device's self-profiler must see the pipeline now.
        telemetry::TelemetrySink *sink = ggpu.telemetry();
        if (sink && sink->config().selfProfile) {
            out.pipeline->setProfiler(&sink->profiler());
        }
        r.gfx = ggpu.createStream("graphics");
    }
    Gpu &cgpu = *devices[r.cmpDevice];
    if (sc.compute.present) {
        r.cmp = cgpu.createStream("compute");
    }
    for (uint32_t f = 0; sc.graphics.present && f < sc.graphics.frames;
         ++f) {
        out.frames.push_back(
            renderFrame(sc, gb, f, gheap, *out.pipeline));
        submitFrame(ggpu, r.gfx, out.frames.back(),
                    sc.graphics.fixedFunctionDelay);
    }
    const ComputeDesc &cd = sc.compute;
    AddressSpace &cheap = heaps[r.cmpDevice];
    if (r.cmp != kInvalidStream && !cd.preset.empty()) {
        // Preset workloads serialize in stream order.
        for (const KernelInfo &k :
             buildPresetCompute(cd, cheap, out.pipeline.get())) {
            cgpu.enqueueKernel(r.cmp, k);
        }
    } else if (r.cmp != kInvalidStream) {
        const std::function<AddressSpace &(const BufferNode &)>
            buffer_heap = [&](const BufferNode &b) -> AddressSpace & {
            return heaps[b.device >= 0 ? static_cast<uint32_t>(b.device)
                                       : r.cmpDevice];
        };
        enqueueExplicit(cgpu, r.cmp, cd,
                        buildExplicitKernels(cd, cheap, out.pipeline.get(),
                                             buffer_heap));
    }
    if (r.gfxDevice == r.cmpDevice) {
        out.controllers =
            applyPartitionScheme(cgpu, scheme, r.gfx, r.cmp);
    }
}

} // namespace

std::vector<Cycle>
burstBases(const ScheduleNode &s, double core_clock_mhz)
{
    std::vector<Cycle> bases;
    bases.reserve(s.bursts);
    if (!s.poisson) {
        for (uint32_t b = 0; b < s.bursts; ++b) {
            bases.push_back(static_cast<Cycle>(b) * s.period);
        }
        return bases;
    }
    // Exponential inter-arrival gaps with mean core_clock/rate_hz
    // cycles; cumulative sums keep arrivals non-decreasing, which the
    // FIFO stream order requires. 1-u keeps log() off zero.
    const double cycles_per_arrival = core_clock_mhz * 1.0e6 / s.rateHz;
    Rng rng(s.seed);
    double t = 0.0;
    for (uint32_t b = 0; b < s.bursts; ++b) {
        t += -std::log(1.0 - rng.nextDouble()) * cycles_per_arrival;
        bases.push_back(static_cast<Cycle>(t));
    }
    return bases;
}

SubmitResult
submitScenario(const Scenario &sc, Gpu &gpu, AddressSpace &heap,
               Materialized &out)
{
    MultiSubmitResult r;
    submitOn(sc, {&gpu}, std::span<AddressSpace>(&heap, 1),
             sc.gpu.partition, r, out);
    return {r.gfx, r.cmp};
}

MultiSubmitResult
submitScenarioMulti(const Scenario &sc, mgpu::MultiGpu &mgpu,
                    Materialized &out)
{
    const uint32_t n = mgpu.config().numGpus;
    MultiSubmitResult r;
    PartitionScheme scheme = PartitionScheme::Exhaustive;
    switch (sc.gpu.placement) {
    case Placement::Split:
        r.gfxDevice = 0;
        r.cmpDevice = 1;
        break;
    case Placement::Colocated:
        scheme = PartitionScheme::Mps;
        break;
    case Placement::Mig:
        scheme = PartitionScheme::Mig;
        break;
    }
    if (sc.graphics.device >= 0) {
        r.gfxDevice = static_cast<uint32_t>(sc.graphics.device);
    }
    if (sc.compute.device >= 0) {
        r.cmpDevice = static_cast<uint32_t>(sc.compute.device);
    }
    fatal_if(r.gfxDevice >= n || r.cmpDevice >= n,
             "scenario stream device out of range");
    // Placement implies partitioning when both streams share a device:
    // colocated = mps (even SM split), mig = mig (SM split + L2 bank
    // masks). A lone stream, or streams on split devices, keep the
    // whole device.
    if (!sc.graphics.present || !sc.compute.present) {
        scheme = PartitionScheme::Exhaustive;
    }

    // One heap per device, each at the single-GPU layout's local base
    // offset into that device's address window — addresses outlive the
    // allocators, which only exist for the duration of the build.
    std::vector<Gpu *> devices;
    std::vector<AddressSpace> heaps;
    heaps.reserve(n);
    for (uint32_t d = 0; d < n; ++d) {
        devices.push_back(&mgpu.device(d));
        heaps.push_back(mgpu.heapFor(d));
    }
    submitOn(sc, devices, heaps, scheme, r, out);
    return r;
}

} // namespace crisp::scenario
