// Bit-identity pins for the texture's fast paths. The table-driven build
// is compared texel by texel against the straightforward formula (one
// sine and one cosine per texel, a mip chain that clamps every tap); the
// shift-based texel addressing against the division form; the wrap fast
// path against the modulo form.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "graphics/texture.hpp"

namespace crisp
{
namespace
{

// ---------------------------------------------------------------------
// Texture content: one sine and one cosine per texel, and a mip chain
// that clamps every tap and divides by the tap count.

std::vector<Texel>
referenceContent(uint32_t width, uint32_t height, uint32_t layers,
                 uint64_t seed)
{
    std::vector<Texel> data(static_cast<size_t>(width) * height * layers);
    Rng rng(seed * 0x51ed2701u + 11);
    for (uint32_t layer = 0; layer < layers; ++layer) {
        const float hue = rng.nextDouble() * 6.0f;
        const float checker = 8.0f + static_cast<float>(rng.nextBelow(24));
        for (uint32_t y = 0; y < height; ++y) {
            for (uint32_t x = 0; x < width; ++x) {
                const float u = static_cast<float>(x) / width;
                const float v = static_cast<float>(y) / height;
                const int cx = static_cast<int>(u * checker);
                const int cy = static_cast<int>(v * checker);
                const float base = ((cx + cy) % 2 == 0) ? 0.85f : 0.35f;
                const float detail =
                    0.15f * std::sin(u * 97.0f + hue) *
                    std::cos(v * 83.0f + hue);
                Texel t;
                t.r = std::clamp(base + detail, 0.0f, 1.0f);
                t.g = std::clamp(
                    base * (0.5f + 0.5f * std::sin(hue)) + detail, 0.0f,
                    1.0f);
                t.b = std::clamp(
                    base * (0.5f + 0.5f * std::cos(hue)) - detail, 0.0f,
                    1.0f);
                data[(static_cast<size_t>(layer) * height + y) * width +
                     x] = t;
            }
        }
    }
    return data;
}

/** The next mip level of a w x h x layers image. */
std::vector<Texel>
referenceMip(const std::vector<Texel> &prev, uint32_t pw, uint32_t ph,
             uint32_t w, uint32_t h, uint32_t layers)
{
    std::vector<Texel> out(static_cast<size_t>(w) * h * layers);
    for (uint32_t layer = 0; layer < layers; ++layer) {
        for (uint32_t y = 0; y < h; ++y) {
            for (uint32_t x = 0; x < w; ++x) {
                Texel acc;
                acc.a = 0.0f;
                int count = 0;
                for (uint32_t dy = 0; dy < 2; ++dy) {
                    for (uint32_t dx = 0; dx < 2; ++dx) {
                        const uint32_t sx = std::min(2 * x + dx, pw - 1);
                        const uint32_t sy = std::min(2 * y + dy, ph - 1);
                        const Texel &s =
                            prev[(static_cast<size_t>(layer) * ph + sy) *
                                     pw + sx];
                        acc.r += s.r;
                        acc.g += s.g;
                        acc.b += s.b;
                        acc.a += s.a;
                        ++count;
                    }
                }
                const float inv = 1.0f / static_cast<float>(count);
                acc.r *= inv;
                acc.g *= inv;
                acc.b *= inv;
                acc.a *= inv;
                out[(static_cast<size_t>(layer) * h + y) * w + x] = acc;
            }
        }
    }
    return out;
}

/** Exact equality, down to the sign of zero. */
void
expectSameTexel(const Texel &a, const Texel &b)
{
    EXPECT_EQ(std::bit_cast<uint32_t>(a.r), std::bit_cast<uint32_t>(b.r));
    EXPECT_EQ(std::bit_cast<uint32_t>(a.g), std::bit_cast<uint32_t>(b.g));
    EXPECT_EQ(std::bit_cast<uint32_t>(a.b), std::bit_cast<uint32_t>(b.b));
    EXPECT_EQ(std::bit_cast<uint32_t>(a.a), std::bit_cast<uint32_t>(b.a));
}

struct Dims
{
    uint32_t w;
    uint32_t h;
    uint32_t layers;
};

const Dims kDims[] = {
    {64, 64, 1}, {37, 19, 3}, {1, 1, 1}, {3, 128, 2}, {100, 7, 1},
};

TEST(TextureContentIdentity, MatchesPerTexelTrigAtEveryLevel)
{
    for (uint64_t seed : {1ull, 7ull, 12345ull, 0xdeadbeefull}) {
        for (const Dims &d : kDims) {
            AddressSpace heap;
            Texture2D tex("t", d.w, d.h, TexFormat::RGBA8, heap, d.layers,
                          true, seed);
            std::vector<Texel> ref =
                referenceContent(d.w, d.h, d.layers, seed);
            for (uint32_t level = 0; level < tex.numLevels(); ++level) {
                const uint32_t w = tex.levelWidth(level);
                const uint32_t h = tex.levelHeight(level);
                if (level > 0) {
                    ref = referenceMip(ref, tex.levelWidth(level - 1),
                                       tex.levelHeight(level - 1), w, h,
                                       d.layers);
                }
                for (uint32_t layer = 0; layer < d.layers; ++layer) {
                    for (uint32_t y = 0; y < h; ++y) {
                        for (uint32_t x = 0; x < w; ++x) {
                            SCOPED_TRACE(testing::Message()
                                         << "seed " << seed << " " << d.w
                                         << "x" << d.h << " level " << level
                                         << " layer " << layer << " (" << x
                                         << "," << y << ")");
                            expectSameTexel(
                                tex.fetch(level, layer,
                                          static_cast<int32_t>(x),
                                          static_cast<int32_t>(y)),
                                ref[(static_cast<size_t>(layer) * h + y) *
                                        w + x]);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Texel addressing: the block-linear division form.

Addr
referenceTexelAddr(const Texture2D &tex, uint32_t level, uint32_t layer,
                   uint32_t x, uint32_t y)
{
    const uint32_t w = tex.levelWidth(level);
    const uint32_t h = tex.levelHeight(level);
    x = std::min(x, w - 1);
    y = std::min(y, h - 1);
    uint32_t tile_w;
    uint32_t tile_h;
    texTileDims(tex.format(), tile_w, tile_h);
    const uint32_t bpp = texFormatBytes(tex.format());
    uint64_t level_offset = 0;
    for (uint32_t l = 0; l < level; ++l) {
        const uint64_t tx = (tex.levelWidth(l) + tile_w - 1) / tile_w;
        const uint64_t ty = (tex.levelHeight(l) + tile_h - 1) / tile_h;
        level_offset += tx * ty * tile_w * tile_h * tex.layers() * bpp;
    }
    const uint64_t tiles_x = (w + tile_w - 1) / tile_w;
    const uint64_t tiles_y = (h + tile_h - 1) / tile_h;
    const uint64_t tile_index =
        (static_cast<uint64_t>(y) / tile_h) * tiles_x + x / tile_w;
    const uint64_t in_tile =
        (static_cast<uint64_t>(y) % tile_h) * tile_w + x % tile_w;
    const uint64_t layer_bytes = tiles_x * tiles_y * tile_w * tile_h * bpp;
    return tex.baseAddr() + level_offset + layer * layer_bytes +
           (tile_index * tile_w * tile_h + in_tile) * bpp;
}

TEST(TexelAddrIdentity, MatchesDivisionFormForEveryFormatLevelAndLayer)
{
    const Dims dims[] = {
        {64, 64, 1}, {37, 19, 3}, {1, 1, 1}, {3, 128, 2},
        {100, 7, 1}, {9, 5, 2},   {513, 33, 1},
    };
    for (TexFormat fmt : {TexFormat::R8, TexFormat::RG8, TexFormat::RGBA8,
                          TexFormat::RGBA16F}) {
        for (const Dims &d : dims) {
            AddressSpace heap;
            heap.alloc(1000);   // a base that is not the heap origin
            Texture2D tex("t", d.w, d.h, fmt, heap, d.layers, true, 1);
            for (uint32_t level = 0; level < tex.numLevels(); ++level) {
                const uint32_t w = tex.levelWidth(level);
                const uint32_t h = tex.levelHeight(level);
                for (uint32_t layer = 0; layer < d.layers; ++layer) {
                    // Two texels past each edge exercise the clamp.
                    for (uint32_t y = 0; y < h + 2; ++y) {
                        for (uint32_t x = 0; x < w + 2; ++x) {
                            ASSERT_EQ(tex.texelAddr(level, layer, x, y),
                                      referenceTexelAddr(tex, level, layer,
                                                         x, y))
                                << "format " << static_cast<int>(fmt)
                                << " " << d.w << "x" << d.h << " level "
                                << level << " layer " << layer << " ("
                                << x << "," << y << ")";
                        }
                    }
                    // Far-out coordinates clamp as well.
                    ASSERT_EQ(tex.texelAddr(level, layer, ~0u, ~0u),
                              referenceTexelAddr(tex, level, layer, ~0u,
                                                 ~0u));
                }
            }
        }
    }
}

TEST(WrapTexelCoordIdentity, MatchesModuloFormWithinThreePeriods)
{
    for (int32_t d : {1, 2, 3, 7, 8, 64, 100, 513}) {
        for (int32_t v = -3 * d; v <= 3 * d; ++v) {
            ASSERT_EQ(wrapTexelCoord(v, d), ((v % d) + d) % d)
                << "v " << v << " dim " << d;
        }
    }
}

} // namespace
} // namespace crisp
