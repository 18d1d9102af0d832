#include "graphics/sampler.hpp"

#include <algorithm>
#include <cmath>

namespace crisp
{

float
Sampler::computeLod(const Texture2D &tex, const Vec2 &duvdx,
                    const Vec2 &duvdy)
{
    // Scale derivatives into texel space of the base level.
    const float w = static_cast<float>(tex.width());
    const float h = static_cast<float>(tex.height());
    const float lx = duvdx.x * w;
    const float ly = duvdx.y * h;
    const float rx = duvdy.x * w;
    const float ry = duvdy.y * h;
    const float len_x = std::sqrt(lx * lx + ly * ly);
    const float len_y = std::sqrt(rx * rx + ry * ry);
    const float rho = std::max(len_x, len_y);
    if (rho <= 1.0f) {
        return 0.0f;
    }
    return std::log2(rho);
}

uint32_t
Sampler::selectLevel(const Texture2D &tex, float lod)
{
    const float clamped = std::clamp(
        lod, 0.0f, static_cast<float>(tex.numLevels() - 1));
    return static_cast<uint32_t>(clamped + 0.5f) >= tex.numLevels()
        ? tex.numLevels() - 1
        : static_cast<uint32_t>(clamped + 0.5f);
}

namespace
{

/** Convert normalized uv to integer texel coords at a level (wrap). */
void
texelCoords(const Texture2D &tex, uint32_t level, const Vec2 &uv,
            int32_t &x, int32_t &y, float &fx, float &fy)
{
    const float w = static_cast<float>(tex.levelWidth(level));
    const float h = static_cast<float>(tex.levelHeight(level));
    // Texel centers at (i + 0.5) / dim.
    const float sx = uv.x * w - 0.5f;
    const float sy = uv.y * h - 0.5f;
    x = static_cast<int32_t>(std::floor(sx));
    y = static_cast<int32_t>(std::floor(sy));
    fx = sx - static_cast<float>(x);
    fy = sy - static_cast<float>(y);
}

} // namespace

namespace
{

/** Append the four bilinear corner addresses at one level. */
void
bilinearCorners(const Texture2D &tex, uint32_t level, const Vec2 &uv,
                uint32_t layer, std::vector<Addr> &out)
{
    const int32_t w = static_cast<int32_t>(tex.levelWidth(level));
    const int32_t h = static_cast<int32_t>(tex.levelHeight(level));
    int32_t x;
    int32_t y;
    float fx;
    float fy;
    texelCoords(tex, level, uv, x, y, fx, fy);
    for (int32_t dy = 0; dy < 2; ++dy) {
        for (int32_t dx = 0; dx < 2; ++dx) {
            out.push_back(tex.texelAddr(level, layer,
                                        wrapTexelCoord(x + dx, w),
                                        wrapTexelCoord(y + dy, h)));
        }
    }
}

} // namespace

void
Sampler::footprint(const Texture2D &tex, const Vec2 &uv, float lod,
                   uint32_t layer, TexFilter filter, std::vector<Addr> &out)
{
    if (filter == TexFilter::Trilinear) {
        // Two bilinear footprints on the straddling levels (the upper one
        // clamps at the top of the chain, duplicating the lower's size so
        // callers always see eight addresses).
        const float clamped = std::clamp(
            lod, 0.0f, static_cast<float>(tex.numLevels() - 1));
        const uint32_t lo = static_cast<uint32_t>(clamped);
        const uint32_t hi = std::min(lo + 1, tex.numLevels() - 1);
        bilinearCorners(tex, lo, uv, layer, out);
        bilinearCorners(tex, hi, uv, layer, out);
        return;
    }
    const uint32_t level = selectLevel(tex, lod);
    if (filter == TexFilter::Nearest) {
        const int32_t w = static_cast<int32_t>(tex.levelWidth(level));
        const int32_t h = static_cast<int32_t>(tex.levelHeight(level));
        int32_t x;
        int32_t y;
        float fx;
        float fy;
        texelCoords(tex, level, uv, x, y, fx, fy);
        const int32_t nx = wrapTexelCoord(x + (fx >= 0.5f ? 1 : 0), w);
        const int32_t ny = wrapTexelCoord(y + (fy >= 0.5f ? 1 : 0), h);
        out.push_back(tex.texelAddr(level, layer, nx, ny));
        return;
    }
    bilinearCorners(tex, level, uv, layer, out);
}

Texel
Sampler::sample(const Texture2D &tex, const Vec2 &uv, float lod,
                uint32_t layer, TexFilter filter)
{
    if (filter == TexFilter::Trilinear) {
        const float clamped = std::clamp(
            lod, 0.0f, static_cast<float>(tex.numLevels() - 1));
        const uint32_t lo = static_cast<uint32_t>(clamped);
        const uint32_t hi = std::min(lo + 1, tex.numLevels() - 1);
        const float frac = clamped - static_cast<float>(lo);
        const Texel a = sample(tex, uv, static_cast<float>(lo), layer,
                               TexFilter::Bilinear);
        const Texel b = sample(tex, uv, static_cast<float>(hi), layer,
                               TexFilter::Bilinear);
        Texel out;
        out.r = a.r + (b.r - a.r) * frac;
        out.g = a.g + (b.g - a.g) * frac;
        out.b = a.b + (b.b - a.b) * frac;
        out.a = a.a + (b.a - a.a) * frac;
        return out;
    }
    const uint32_t level = selectLevel(tex, lod);
    const int32_t w = static_cast<int32_t>(tex.levelWidth(level));
    const int32_t h = static_cast<int32_t>(tex.levelHeight(level));
    int32_t x;
    int32_t y;
    float fx;
    float fy;
    texelCoords(tex, level, uv, x, y, fx, fy);

    if (filter == TexFilter::Nearest) {
        return tex.fetch(level, layer, x + (fx >= 0.5f ? 1 : 0),
                         y + (fy >= 0.5f ? 1 : 0));
    }
    const Texel t00 = tex.fetch(level, layer, x, y);
    const Texel t10 = tex.fetch(level, layer, x + 1, y);
    const Texel t01 = tex.fetch(level, layer, x, y + 1);
    const Texel t11 = tex.fetch(level, layer, x + 1, y + 1);
    auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
    Texel out;
    out.r = lerp(lerp(t00.r, t10.r, fx), lerp(t01.r, t11.r, fx), fy);
    out.g = lerp(lerp(t00.g, t10.g, fx), lerp(t01.g, t11.g, fx), fy);
    out.b = lerp(lerp(t00.b, t10.b, fx), lerp(t01.b, t11.b, fx), fy);
    out.a = lerp(lerp(t00.a, t10.a, fx), lerp(t01.a, t11.a, fx), fy);
    (void)w;
    (void)h;
    return out;
}

} // namespace crisp
