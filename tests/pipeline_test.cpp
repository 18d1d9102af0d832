#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp
{
namespace
{

/** A minimal one-drawcall scene for pipeline unit tests. */
Scene
tinyScene(AddressSpace &heap, ShaderKind kind = ShaderKind::Basic)
{
    Scene scene;
    scene.name = "tiny";
    scene.camera.eye = {0.0f, 0.0f, 3.0f};
    scene.camera.view =
        Mat4::lookAt(scene.camera.eye, {0, 0, 0}, {0, 1, 0});
    scene.camera.proj = Mat4::perspective(1.0f, 1.0f, 0.1f, 100.0f);

    Mesh *sphere = scene.addMesh(Mesh::makeSphere("s", 12, 16, 1.0f, heap));
    Material mat;
    mat.name = "m";
    mat.kind = kind;
    const uint32_t n_tex = kind == ShaderKind::Pbr ? 8 : 1;
    for (uint32_t i = 0; i < n_tex; ++i) {
        // Appending, not `"t" + std::to_string(i)`: GCC 12 inlines that
        // operator+ into a false -Wrestrict warning.
        std::string name = "t";
        name += std::to_string(i);
        mat.textures.push_back(scene.addTexture(std::make_unique<Texture2D>(
            name, 64, 64, TexFormat::RGBA8, heap, 1, true, i + 1)));
    }
    Material *m = scene.addMaterial(std::move(mat));
    DrawCall d;
    d.name = "ball";
    d.mesh = sphere;
    d.material = m;
    scene.draws.push_back(std::move(d));
    return scene;
}

PipelineConfig
tinyConfig()
{
    PipelineConfig cfg;
    cfg.width = 96;
    cfg.height = 96;
    return cfg;
}

TEST(PipelineTest, ProducesKernelsAndFragments)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    RenderPipeline pipe(tinyConfig(), heap);
    const RenderSubmission sub = pipe.submit(scene);

    ASSERT_EQ(sub.reports.size(), 1u);
    const DrawcallReport &r = sub.reports[0];
    EXPECT_GT(r.batches, 0u);
    EXPECT_GT(r.vsInvocations, 0u);
    EXPECT_GE(r.vsThreadsLaunched, r.vsInvocations);
    EXPECT_GT(r.fragments, 0u);
    EXPECT_GT(r.fsWarps, 0u);
    ASSERT_EQ(sub.kernels.size(), 2u);  // one VS + one FS kernel
    EXPECT_EQ(sub.kernels[r.vsKernelIndex].name, "ball.vs");
    EXPECT_EQ(sub.kernels[r.fsKernelIndex].name, "ball.fs");
    EXPECT_EQ(sub.kernels[r.vsKernelIndex].numCtas(),
              r.batches);
    EXPECT_EQ(sub.kernels[r.fsKernelIndex].numCtas(), r.fsCtas);
}

TEST(PipelineTest, RendersNonEmptyImage)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    RenderPipeline pipe(tinyConfig(), heap);
    pipe.submit(scene);

    // The sphere fills the view center; its shaded color must differ from
    // the clear color.
    const Framebuffer &fb = pipe.framebuffer();
    const Texel center = fb.colorAt(48, 48);
    const Texel corner = fb.colorAt(1, 1);
    const float center_lum = center.r + center.g + center.b;
    const float corner_lum = corner.r + corner.g + corner.b;
    EXPECT_GT(std::fabs(center_lum - corner_lum), 0.05f);
    // Depth was written under the sphere.
    EXPECT_LT(fb.depthAt(48, 48), 1.0f);
    EXPECT_FLOAT_EQ(fb.depthAt(1, 1), 1.0f);
}

TEST(PipelineTest, VsTraceStructure)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    RenderPipeline pipe(tinyConfig(), heap);
    const RenderSubmission sub = pipe.submit(scene);
    const KernelInfo &vs = sub.kernels[0];

    const CtaTrace cta = vs.source->generate(0);
    ASSERT_FALSE(cta.warps.empty());
    uint32_t ldg = 0;
    uint32_t stg = 0;
    uint32_t exit_count = 0;
    for (const auto &w : cta.warps) {
        for (const auto &in : w.instrs) {
            ldg += in.opcode == Opcode::LDG;
            stg += in.opcode == Opcode::STG;
            exit_count += in.opcode == Opcode::EXIT;
            if (isMemory(in.opcode)) {
                EXPECT_EQ(in.dataClass, DataClass::Pipeline);
                EXPECT_EQ(in.addrs.size(), in.activeLanes());
            }
        }
    }
    // Index fetch + two vertex loads per warp; two output stores per warp.
    EXPECT_EQ(ldg, 3u * cta.warps.size());
    EXPECT_EQ(stg, 2u * cta.warps.size());
    EXPECT_EQ(exit_count, cta.warps.size());
}

TEST(PipelineTest, FsTraceHasTexturesAndColorStore)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap, ShaderKind::Pbr);
    RenderPipeline pipe(tinyConfig(), heap);
    const RenderSubmission sub = pipe.submit(scene);
    ASSERT_EQ(sub.kernels.size(), 2u);
    const KernelInfo &fs = sub.kernels[1];

    const CtaTrace cta = fs.source->generate(0);
    ASSERT_FALSE(cta.warps.empty());
    for (const auto &w : cta.warps) {
        uint32_t tex = 0;
        uint32_t stg = 0;
        for (const auto &in : w.instrs) {
            if (in.opcode == Opcode::TEX) {
                ++tex;
                EXPECT_EQ(in.dataClass, DataClass::Texture);
            }
            if (in.opcode == Opcode::STG) {
                ++stg;
                EXPECT_EQ(in.dataClass, DataClass::Pipeline);
            }
        }
        // One bilinear sample per PBR map: 8 maps x 4 corner fetches.
        EXPECT_EQ(tex, 32u);
        EXPECT_EQ(stg, 1u);  // one color write
    }
}

/** A heavily minified textured plane (distant floor with tiled uv). */
Scene
minifiedScene(AddressSpace &heap)
{
    Scene scene;
    scene.name = "minified";
    scene.camera.eye = {0.0f, 1.5f, 10.0f};
    scene.camera.view =
        Mat4::lookAt(scene.camera.eye, {0, 0, 0}, {0, 1, 0});
    scene.camera.proj = Mat4::perspective(1.0f, 1.0f, 0.1f, 100.0f);
    Mesh *floor = scene.addMesh(
        Mesh::makePlane("floor", 8, 40.0f, 24.0f, heap));
    Material mat;
    mat.name = "m";
    mat.kind = ShaderKind::Basic;
    mat.textures.push_back(scene.addTexture(std::make_unique<Texture2D>(
        "t", 256, 256, TexFormat::RGBA8, heap, 1, true, 3)));
    Material *m = scene.addMaterial(std::move(mat));
    DrawCall d;
    d.name = "floor";
    d.mesh = floor;
    d.material = m;
    scene.draws.push_back(std::move(d));
    return scene;
}

TEST(PipelineTest, LodOffReferencesMoreTextureLines)
{
    AddressSpace heap;
    Scene scene = minifiedScene(heap);

    PipelineConfig on_cfg = tinyConfig();
    RenderPipeline pipe_on(on_cfg, heap);
    const RenderSubmission sub_on = pipe_on.submit(scene);

    PipelineConfig off_cfg = tinyConfig();
    off_cfg.lodEnabled = false;
    RenderPipeline pipe_off(off_cfg, heap);
    const RenderSubmission sub_off = pipe_off.submit(scene);

    const Histogram h_on =
        texLinesPerCtaHistogram(sub_on.kernels[1], 1023);
    const Histogram h_off =
        texLinesPerCtaHistogram(sub_off.kernels[1], 1023);
    // Under minification, without mipmapping every sample lands in the
    // big level-0 image: far more distinct lines per CTA (Fig 9's
    // mechanism). The paper reports up to 6x.
    EXPECT_GT(h_off.mean(), 2.0 * h_on.mean());
}

TEST(PipelineTest, InstancedDrawGeneratesPerInstanceWork)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    // Make the single drawcall instanced (3 instances).
    DrawCall &d = scene.draws[0];
    d.instanceCount = 3;
    d.instanceBufAddr = heap.alloc(64 * 3);
    d.instanceModels = {Mat4::translation({-1.5f, 0, 0}),
                        Mat4::identity(),
                        Mat4::translation({1.5f, 0, 0})};
    d.instanceLayers = {0, 1, 2};

    RenderPipeline pipe(tinyConfig(), heap);
    const RenderSubmission sub = pipe.submit(scene);
    const DrawcallReport &r = sub.reports[0];

    // VS work scales with the instance count.
    AddressSpace heap2;
    Scene single = tinyScene(heap2);
    RenderPipeline pipe2(tinyConfig(), heap2);
    const RenderSubmission sub_single = pipe2.submit(single);
    EXPECT_EQ(r.vsInvocations,
              3u * sub_single.reports[0].vsInvocations);
    EXPECT_EQ(sub.kernels[0].numCtas(), r.batches);
}

TEST(PipelineTest, SubmissionReplaysOnGpu)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    RenderPipeline pipe(tinyConfig(), heap);
    const RenderSubmission sub = pipe.submit(scene);

    GpuConfig cfg;
    cfg.numSms = 4;
    cfg.l2.numBanks = 4;
    cfg.l2.bankGeometry = {256 * 1024, 16, kLineBytes};
    cfg.finalize();
    Gpu gpu(cfg);
    const StreamId gfx = gpu.createStream("gfx");
    submitFrame(gpu, gfx, sub);
    const auto result = gpu.run(10'000'000);
    ASSERT_TRUE(result.completed);
    const auto &st = gpu.stats().stream(gfx);
    EXPECT_EQ(st.kernelsCompleted, 2u);
    EXPECT_GT(st.l1TexAccesses, 0u);
    EXPECT_GT(st.instructions, 0u);
    // Texture data flowed into the L2.
    const auto comp = gpu.l2().composition();
    EXPECT_GT(comp.byClass[static_cast<size_t>(DataClass::Texture)], 0u);
    EXPECT_GT(comp.byClass[static_cast<size_t>(DataClass::Pipeline)], 0u);
}

TEST(PipelineTest, SceneBuildersProduceRenderableScenes)
{
    for (const std::string &name : allSceneNames()) {
        AddressSpace heap;
        Scene scene = buildSceneByName(name, heap);
        EXPECT_EQ(scene.name, name);
        ASSERT_FALSE(scene.draws.empty()) << name;

        PipelineConfig cfg;
        cfg.width = 80;
        cfg.height = 48;
        RenderPipeline pipe(cfg, heap);
        const RenderSubmission sub = pipe.submit(scene);
        EXPECT_GT(sub.totalVsInvocations(), 0u) << name;
        EXPECT_GT(sub.totalFragments(), 0u) << name;
        EXPECT_FALSE(sub.kernels.empty()) << name;
    }
}


/** FNV-1a over the RGBA8 color buffer, read back through colorAt. */
uint64_t
imageHash(const Framebuffer &fb)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t y = 0; y < fb.height(); ++y) {
        for (uint32_t x = 0; x < fb.width(); ++x) {
            const Texel c = fb.colorAt(x, y);
            for (const float v : {c.r, c.g, c.b, c.a}) {
                h ^= static_cast<uint64_t>(std::lround(v * 255.0f));
                h *= 0x100000001b3ull;
            }
        }
    }
    return h;
}

TEST(PipelineTest, ImagesMatchPinnedHashes)
{
    // Every evaluation scene at 160x90, with LoD on and off, under each
    // functional filter. One pipeline per configuration renders the six
    // scenes in turn, so all but the first image follow an earlier frame
    // on the same framebuffer. The hashes pin the images the pipeline
    // produced when it shaded every fragment inside submit().
    static const std::array<uint64_t, 36> kPinned = {
        // LoD on, nearest: SPH, PL, MT, SPL, PT, IT.
        0xf6e135dc62ca6c5aull, 0xbb2b4a5d15767a40ull, 0x30eeb73eb69ee081ull,
        0x1540302f7c17907cull, 0x9bd7307f1363997bull, 0xfb2f1e2ecd667423ull,
        // LoD on, bilinear: SPH, PL, MT, SPL, PT, IT.
        0xeb87252fd82b2f1full, 0x36822d1345be4dc1ull, 0x1ca456d0588901f0ull,
        0x40036b31d6315184ull, 0xb591b4a6bdda7233ull, 0x6cc0f5fd8f575346ull,
        // LoD on, trilinear: SPH, PL, MT, SPL, PT, IT.
        0x22913ef4a439c6d3ull, 0x95f0dca0ef7aab7aull, 0x5e3db0a4f14517cdull,
        0x68b1b83b8ce86c76ull, 0xadd5b986303441d1ull, 0x37fd18fa0b897326ull,
        // LoD off, nearest: SPH, PL, MT, SPL, PT, IT.
        0x5e2c4a4cb39311c8ull, 0x4c4ea03566520b59ull, 0x3bf24f4f6162f8daull,
        0x8e3be825cb194477ull, 0xf265598c647c1e0full, 0x10c3f14353466c55ull,
        // LoD off, bilinear: SPH, PL, MT, SPL, PT, IT.
        0xa7770b5f458132b3ull, 0x82e4ea5361c0f5b0ull, 0xa8e18b8989f5d9acull,
        0xea386434ba6f8cf6ull, 0x4b85ab808d5752f8ull, 0xdafc7150cbbe7191ull,
        // LoD off, trilinear: SPH, PL, MT, SPL, PT, IT.
        0xa7770b5f458132b3ull, 0x82e4ea5361c0f5b0ull, 0xa8e18b8989f5d9acull,
        0xea386434ba6f8cf6ull, 0x4b85ab808d5752f8ull, 0xdafc7150cbbe7191ull,
    };
    AddressSpace heap;
    std::vector<Scene> scenes;
    for (const std::string &name : allSceneNames()) {
        scenes.push_back(buildSceneByName(name, heap));
    }
    size_t i = 0;
    for (const bool lod : {true, false}) {
        for (const TexFilter filter :
             {TexFilter::Nearest, TexFilter::Bilinear,
              TexFilter::Trilinear}) {
            PipelineConfig cfg;
            cfg.width = 160;
            cfg.height = 90;
            cfg.lodEnabled = lod;
            cfg.functionalFilter = filter;
            RenderPipeline pipe(cfg, heap);
            for (const Scene &scene : scenes) {
                pipe.submit(scene);
                const uint64_t h = imageHash(pipe.framebuffer());
                EXPECT_EQ(h, kPinned[i])
                    << "image " << i << " (" << scene.name << ", lod "
                    << lod << ", filter " << static_cast<int>(filter)
                    << ") hash 0x" << std::hex << h;
                ++i;
            }
        }
    }
}

TEST(PipelineTest, SecondSubmitReplacesFirstImage)
{
    AddressSpace heap;
    Scene second = tinyScene(heap, ShaderKind::Pbr);
    RenderPipeline pipe(tinyConfig(), heap);
    uint64_t first_hash = 0;
    {
        // The first frame is never read; its scene is gone before the
        // second submit, which must drop the frame's color work unrun.
        Scene first = minifiedScene(heap);
        RenderPipeline alone(tinyConfig(), heap);
        alone.submit(first);
        first_hash = imageHash(alone.framebuffer());
        pipe.submit(first);
    }
    pipe.submit(second);

    RenderPipeline fresh(tinyConfig(), heap);
    fresh.submit(second);
    const uint64_t second_hash = imageHash(fresh.framebuffer());
    EXPECT_NE(first_hash, second_hash);
    EXPECT_EQ(imageHash(pipe.framebuffer()), second_hash);
}

TEST(PipelineTest, DirectWriteAfterSubmitLandsOnTop)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    const Texel red{1.0f, 0.0f, 0.0f, 1.0f};
    RenderPipeline pipe(tinyConfig(), heap);
    pipe.submit(scene);
    pipe.framebuffer().writeColor(48, 48, red);

    // The same frame with its colors read before the write.
    RenderPipeline read_first(tinyConfig(), heap);
    read_first.submit(scene);
    const Texel shaded = read_first.framebuffer().colorAt(48, 48);
    ASSERT_NE(shaded.g, 0.0f);
    read_first.framebuffer().writeColor(48, 48, red);

    const Texel c = pipe.framebuffer().colorAt(48, 48);
    EXPECT_FLOAT_EQ(c.r, 1.0f);
    EXPECT_FLOAT_EQ(c.g, 0.0f);
    EXPECT_FLOAT_EQ(c.b, 0.0f);
    EXPECT_EQ(imageHash(pipe.framebuffer()),
              imageHash(read_first.framebuffer()));
}

TEST(PipelineTest, DepthTrafficOptionAddsEarlyZAccesses)
{
    AddressSpace heap;
    Scene scene = tinyScene(heap);
    PipelineConfig cfg = tinyConfig();
    cfg.emitDepthTraffic = true;
    RenderPipeline pipe(cfg, heap);
    const RenderSubmission sub = pipe.submit(scene);
    ASSERT_EQ(sub.kernels.size(), 2u);
    const CtaTrace cta = sub.kernels[1].source->generate(0);
    uint32_t depth_loads = 0;
    uint32_t stores = 0;
    for (const auto &in : cta.warps[0].instrs) {
        depth_loads += in.opcode == Opcode::LDG && in.accessBytes == 4;
        stores += in.opcode == Opcode::STG;
    }
    // One early-Z read per fragment plus the depth write and color write.
    EXPECT_GE(depth_loads, 1u);
    EXPECT_EQ(stores, 2u);

    // Default configuration emits no depth traffic (ROP skipped, SIII).
    AddressSpace heap2;
    Scene scene2 = tinyScene(heap2);
    RenderPipeline plain(tinyConfig(), heap2);
    const RenderSubmission sub2 = plain.submit(scene2);
    const CtaTrace cta2 = sub2.kernels[1].source->generate(0);
    uint32_t stores2 = 0;
    for (const auto &in : cta2.warps[0].instrs) {
        stores2 += in.opcode == Opcode::STG;
    }
    EXPECT_EQ(stores2, 1u);
}

} // namespace
} // namespace crisp
