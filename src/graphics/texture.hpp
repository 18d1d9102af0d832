#ifndef CRISP_GRAPHICS_TEXTURE_HPP
#define CRISP_GRAPHICS_TEXTURE_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graphics/address_space.hpp"

namespace crisp
{

/** Texel storage formats used by the evaluated materials. */
enum class TexFormat : uint8_t
{
    R8,       ///< 1 byte/texel (masks: ambient occlusion, roughness...).
    RG8,      ///< 2 bytes/texel (normal XY).
    RGBA8,    ///< 4 bytes/texel (albedo and most colour maps).
    RGBA16F,  ///< 8 bytes/texel (HDR irradiance/prefilter maps).
};

/** Bytes per texel for a format. */
uint32_t texFormatBytes(TexFormat fmt);

/**
 * Block-linear tile edge for a format: GPU textures are stored in small
 * 2D tiles so one cache line covers a square texel neighborhood instead of
 * a 1D row run. Narrow formats use larger tiles so a tile still spans
 * 64-128 bytes.
 */
void texTileDims(TexFormat fmt, uint32_t &tile_w, uint32_t &tile_h);

/**
 * Wrap addressing: @p v mod @p dim in [0, dim). Coordinates at most one
 * period outside, which is all a bilinear footprint reaches, cost a
 * compare and an add; only farther ones divide.
 */
inline int32_t
wrapTexelCoord(int32_t v, int32_t dim)
{
    if (v >= 0 && v < dim) {
        return v;
    }
    if (v < 0 && v >= -dim) {
        return v + dim;
    }
    if (v >= dim && v - dim < dim) {
        return v - dim;
    }
    return ((v % dim) + dim) % dim;
}

/** A sampled RGBA colour in [0,1]. */
struct Texel
{
    float r = 0.0f;
    float g = 0.0f;
    float b = 0.0f;
    float a = 1.0f;
};

/**
 * A 2D texture (optionally an array texture with several layers) with a
 * full mipmap chain.
 *
 * Mip level L is the base image downsampled by 2^L per axis; the driver
 * generates levels 0..log2(dim) with a box filter before execution (§VI-B).
 * The texture owns a region of the simulated address space so the sampler
 * can compute the byte address of every texel. Texel values exist only for
 * rendering actual images: the timing model reads addresses alone, so the
 * procedural content and its mip chain are built once, at the first
 * fetch(), and a texture that is never fetched never builds them.
 */
class Texture2D
{
  public:
    /**
     * Create a texture with procedural content (built at the first fetch;
     * the geometry and the heap allocation are fixed here).
     *
     * @param layers number of array layers (Planets' 3D texture uses > 1)
     * @param mipmapped generate the full chain; false keeps only level 0
     */
    Texture2D(std::string name, uint32_t width, uint32_t height,
              TexFormat fmt, AddressSpace &heap, uint32_t layers = 1,
              bool mipmapped = true, uint64_t pattern_seed = 1);

    const std::string &name() const { return name_; }
    uint32_t width() const { return width_; }
    uint32_t height() const { return height_; }
    uint32_t layers() const { return layers_; }
    TexFormat format() const { return fmt_; }
    uint32_t numLevels() const
    {
        return static_cast<uint32_t>(levelOffsets_.size());
    }
    Addr baseAddr() const { return base_; }
    uint64_t sizeBytes() const { return sizeBytes_; }

    uint32_t levelWidth(uint32_t level) const;
    uint32_t levelHeight(uint32_t level) const;

    /**
     * Byte address of texel (x, y) of @p layer at @p level; this is the
     * address the TEX instruction carries into the unified L1.
     */
    Addr texelAddr(uint32_t level, uint32_t layer, uint32_t x,
                   uint32_t y) const;

    /**
     * Functional texel fetch with wrap addressing. The first call builds
     * every level's content; it is safe to call from several threads.
     */
    Texel fetch(uint32_t level, uint32_t layer, int32_t x, int32_t y) const;

  private:
    void buildContent() const;
    void buildMipChain() const;

    uint32_t levelWidthRaw(uint32_t level) const
    {
        const uint32_t w = width_ >> level;
        return w == 0 ? 1 : w;
    }
    uint32_t levelHeightRaw(uint32_t level) const
    {
        const uint32_t h = height_ >> level;
        return h == 0 ? 1 : h;
    }

    std::string name_;
    uint32_t width_;
    uint32_t height_;
    uint32_t layers_;
    TexFormat fmt_;
    uint64_t patternSeed_;
    Addr base_ = 0;
    uint64_t sizeBytes_ = 0;
    /** log2 of the square tile edge and of the texel size in bytes. */
    uint32_t tileShift_ = 0;
    uint32_t texelShift_ = 0;
    /** Byte offset of each level from base (all layers contiguous). */
    std::vector<uint64_t> levelOffsets_;
    /** Functional storage: per level, layers * w * h texels. */
    mutable std::vector<std::vector<Texel>> data_;
    mutable std::once_flag contentBuilt_;
};

} // namespace crisp

#endif // CRISP_GRAPHICS_TEXTURE_HPP
