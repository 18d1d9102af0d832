/**
 * @file
 * Google-benchmark microbenchmarks of the graphics frontend hot paths:
 * triangle rasterization, vertex batching and texture footprint
 * generation. Together with the cache paths these bound functional-frame
 * throughput.
 */

#include <benchmark/benchmark.h>

#include "graphics/batching.hpp"
#include "graphics/framebuffer.hpp"
#include "graphics/mesh.hpp"
#include "graphics/raster.hpp"
#include "graphics/sampler.hpp"

namespace crisp
{
namespace
{

void
BM_RasterizeTriangle(benchmark::State &state)
{
    AddressSpace heap;
    Framebuffer fb(256, 256, heap);
    const Vec4 clip[3] = {{-0.8f, -0.8f, 0.5f, 1.0f},
                          {0.0f, 0.8f, 0.5f, 1.0f},
                          {0.8f, -0.8f, 0.5f, 1.0f}};
    const Vec2 uv[3] = {{0, 0}, {0.5f, 1}, {1, 0}};
    for (auto _ : state) {
        Rasterizer rast(fb);
        rast.submit(clip, uv, 0, 0);
        benchmark::DoNotOptimize(rast.takeBins());
        fb.clear();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RasterizeTriangle);

void
BM_VertexBatching(benchmark::State &state)
{
    AddressSpace heap;
    const Mesh mesh = Mesh::makeSphere("s", 32, 48, 1.0f, heap);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildVertexBatches(mesh.indices(), kDefaultVertexBatchSize));
    }
    state.SetItemsProcessed(state.iterations() *
                            mesh.indices().size());
}
BENCHMARK(BM_VertexBatching);

void
BM_SamplerFootprint(benchmark::State &state)
{
    AddressSpace heap;
    const Texture2D tex("t", 512, 512, TexFormat::RGBA8, heap);
    std::vector<Addr> fp;
    float u = 0.1f;
    for (auto _ : state) {
        fp.clear();
        u = u < 0.9f ? u + 0.013f : 0.1f;
        Sampler::footprint(tex, {u, 1.0f - u}, 2.3f, 0,
                           TexFilter::Bilinear, fp);
        benchmark::DoNotOptimize(fp);
    }
}
BENCHMARK(BM_SamplerFootprint);

void
BM_MipChainBuild(benchmark::State &state)
{
    for (auto _ : state) {
        AddressSpace heap;
        Texture2D tex("t", 256, 256, TexFormat::RGBA8, heap);
        // Content and mip chain are built at the first fetch.
        benchmark::DoNotOptimize(tex.fetch(0, 0, 0, 0));
    }
}
BENCHMARK(BM_MipChainBuild);

} // namespace
} // namespace crisp

BENCHMARK_MAIN();
