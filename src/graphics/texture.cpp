#include "graphics/texture.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hpp"

namespace crisp
{

uint32_t
texFormatBytes(TexFormat fmt)
{
    switch (fmt) {
      case TexFormat::R8: return 1;
      case TexFormat::RG8: return 2;
      case TexFormat::RGBA8: return 4;
      case TexFormat::RGBA16F: return 8;
      default:
        panic("unknown texture format %d", static_cast<int>(fmt));
    }
}

void
texTileDims(TexFormat fmt, uint32_t &tile_w, uint32_t &tile_h)
{
    switch (fmt) {
      case TexFormat::R8:
      case TexFormat::RG8:
        tile_w = 8;
        tile_h = 8;
        break;
      case TexFormat::RGBA8:
      case TexFormat::RGBA16F:
        tile_w = 4;
        tile_h = 4;
        break;
      default:
        panic("unknown texture format %d", static_cast<int>(fmt));
    }
}

Texture2D::Texture2D(std::string name, uint32_t width, uint32_t height,
                     TexFormat fmt, AddressSpace &heap, uint32_t layers,
                     bool mipmapped, uint64_t pattern_seed)
    : name_(std::move(name)),
      width_(width),
      height_(height),
      layers_(layers),
      fmt_(fmt),
      patternSeed_(pattern_seed)
{
    fatal_if(width == 0 || height == 0 || layers == 0,
             "texture %s has a zero dimension", name_.c_str());

    // Total levels: log2(max dim) + 1 (paper §VI-B).
    uint32_t levels = 1;
    if (mipmapped) {
        uint32_t dim = std::max(width_, height_);
        while (dim > 1) {
            dim /= 2;
            ++levels;
        }
    }

    uint32_t tile_w;
    uint32_t tile_h;
    texTileDims(fmt_, tile_w, tile_h);
    panic_if(tile_w != tile_h || !std::has_single_bit(tile_w),
             "texel addressing needs square power-of-two tiles");
    tileShift_ = static_cast<uint32_t>(std::countr_zero(tile_w));
    texelShift_ =
        static_cast<uint32_t>(std::countr_zero(texFormatBytes(fmt_)));
    uint64_t offset = 0;
    for (uint32_t l = 0; l < levels; ++l) {
        levelOffsets_.push_back(offset);
        // Block-linear storage pads each level to whole tiles.
        const uint64_t tiles_x = (levelWidthRaw(l) + tile_w - 1) / tile_w;
        const uint64_t tiles_y = (levelHeightRaw(l) + tile_h - 1) / tile_h;
        offset += tiles_x * tiles_y * tile_w * tile_h * layers_ *
                  texFormatBytes(fmt_);
    }
    sizeBytes_ = offset;
    base_ = heap.alloc(sizeBytes_);
}

// levelWidth/levelHeight must be usable from the constructor before
// levelOffsets_ is complete, so the raw versions take no bounds check.
uint32_t
Texture2D::levelWidth(uint32_t level) const
{
    panic_if(level >= numLevels(), "level %u out of range", level);
    return levelWidthRaw(level);
}

uint32_t
Texture2D::levelHeight(uint32_t level) const
{
    panic_if(level >= numLevels(), "level %u out of range", level);
    return levelHeightRaw(level);
}

Addr
Texture2D::texelAddr(uint32_t level, uint32_t layer, uint32_t x,
                     uint32_t y) const
{
    panic_if(level >= numLevels(), "level %u out of range", level);
    const uint32_t w = levelWidthRaw(level);
    const uint32_t h = levelHeightRaw(level);
    panic_if(layer >= layers_, "layer %u out of range", layer);
    x = std::min(x, w - 1);
    y = std::min(y, h - 1);

    // Block-linear addressing: tiles are row-major, texels row-major
    // within a tile, layers stacked per level. Tile edges and texel
    // sizes are powers of two, so every product and quotient is a shift.
    const uint32_t ts = tileShift_;
    const uint32_t edge_mask = (1u << ts) - 1;
    const uint64_t tiles_x = (w + edge_mask) >> ts;
    const uint64_t tiles_y = (h + edge_mask) >> ts;
    const uint64_t tile_index = (y >> ts) * tiles_x + (x >> ts);
    const uint64_t in_tile = ((y & edge_mask) << ts) | (x & edge_mask);
    const uint64_t layer_bytes = (tiles_x * tiles_y) << (2 * ts + texelShift_);
    return base_ + levelOffsets_[level] + layer * layer_bytes +
           (((tile_index << (2 * ts)) | in_tile) << texelShift_);
}

Texel
Texture2D::fetch(uint32_t level, uint32_t layer, int32_t x, int32_t y) const
{
    std::call_once(contentBuilt_, [this] {
        buildContent();
        buildMipChain();
    });
    level = std::min(level, numLevels() - 1);
    layer = std::min(layer, layers_ - 1);
    const int32_t w = static_cast<int32_t>(levelWidthRaw(level));
    const int32_t h = static_cast<int32_t>(levelHeightRaw(level));
    x = wrapTexelCoord(x, w);
    y = wrapTexelCoord(y, h);
    return data_[level][(static_cast<size_t>(layer) * h + y) * w + x];
}

void
Texture2D::buildContent() const
{
    data_.resize(numLevels());
    data_[0].resize(static_cast<size_t>(width_) * height_ * layers_);
    Rng rng(patternSeed_ * 0x51ed2701u + 11);

    // Procedural content: a layered pattern of large colour patches with
    // high-frequency detail, so downsampling (mipmapping) changes values
    // smoothly and rendered output is visually interpretable. The detail
    // term is a per-column sine times a per-row cosine, so both come from
    // tables built once per layer.
    std::vector<int> cell_x(width_);
    std::vector<float> sin_x(width_);
    std::vector<int> cell_y(height_);
    std::vector<float> cos_y(height_);
    for (uint32_t layer = 0; layer < layers_; ++layer) {
        const float hue = rng.nextDouble() * 6.0f;
        const float checker = 8.0f + static_cast<float>(rng.nextBelow(24));
        const float g_scale = 0.5f + 0.5f * std::sin(hue);
        const float b_scale = 0.5f + 0.5f * std::cos(hue);
        for (uint32_t x = 0; x < width_; ++x) {
            const float u = static_cast<float>(x) / width_;
            cell_x[x] = static_cast<int>(u * checker);
            sin_x[x] = 0.15f * std::sin(u * 97.0f + hue);
        }
        for (uint32_t y = 0; y < height_; ++y) {
            const float v = static_cast<float>(y) / height_;
            cell_y[y] = static_cast<int>(v * checker);
            cos_y[y] = std::cos(v * 83.0f + hue);
        }
        Texel *row = data_[0].data() +
                     static_cast<size_t>(layer) * height_ * width_;
        for (uint32_t y = 0; y < height_; ++y, row += width_) {
            for (uint32_t x = 0; x < width_; ++x) {
                const float base =
                    ((cell_x[x] + cell_y[y]) % 2 == 0) ? 0.85f : 0.35f;
                const float detail = sin_x[x] * cos_y[y];
                Texel &t = row[x];
                t.r = std::clamp(base + detail, 0.0f, 1.0f);
                t.g = std::clamp(base * g_scale + detail, 0.0f, 1.0f);
                t.b = std::clamp(base * b_scale - detail, 0.0f, 1.0f);
            }
        }
    }
}

void
Texture2D::buildMipChain() const
{
    for (uint32_t l = 1; l < numLevels(); ++l) {
        const uint32_t pw = levelWidthRaw(l - 1);
        const uint32_t ph = levelHeightRaw(l - 1);
        const uint32_t w = levelWidthRaw(l);
        const uint32_t h = levelHeightRaw(l);
        data_[l].resize(static_cast<size_t>(w) * h * layers_);
        for (uint32_t layer = 0; layer < layers_; ++layer) {
            const Texel *src =
                data_[l - 1].data() + static_cast<size_t>(layer) * ph * pw;
            Texel *dst = data_[l].data() + static_cast<size_t>(layer) * h * w;
            for (uint32_t y = 0; y < h; ++y, dst += w) {
                // 2x2 box filter from the previous level, edges clamped.
                const Texel *row0 =
                    src + static_cast<size_t>(std::min(2 * y, ph - 1)) * pw;
                const Texel *row1 =
                    src +
                    static_cast<size_t>(std::min(2 * y + 1, ph - 1)) * pw;
                for (uint32_t x = 0; x < w; ++x) {
                    const uint32_t x0 = std::min(2 * x, pw - 1);
                    const uint32_t x1 = std::min(2 * x + 1, pw - 1);
                    const Texel *taps[4] = {row0 + x0, row0 + x1, row1 + x0,
                                            row1 + x1};
                    Texel acc;
                    acc.a = 0.0f;
                    for (const Texel *s : taps) {
                        acc.r += s->r;
                        acc.g += s->g;
                        acc.b += s->b;
                        acc.a += s->a;
                    }
                    acc.r *= 0.25f;
                    acc.g *= 0.25f;
                    acc.b *= 0.25f;
                    acc.a *= 0.25f;
                    dst[x] = acc;
                }
            }
        }
    }
}

} // namespace crisp
