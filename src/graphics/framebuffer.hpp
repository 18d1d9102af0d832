#ifndef CRISP_GRAPHICS_FRAMEBUFFER_HPP
#define CRISP_GRAPHICS_FRAMEBUFFER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graphics/address_space.hpp"
#include "graphics/texture.hpp"

namespace crisp
{

/**
 * Color + depth render target.
 *
 * Holds both functional contents (RGBA8 color, float depth, dumpable as a
 * PPM image: Figs 5 and 8) and simulated addresses so fragment-shader color
 * writes generate realistic pipeline memory traffic.
 *
 * Color can be written late: the pipeline records each drawcall's shading
 * as a deferred color pass, and the passes run in recording order at the
 * first use of the colors (colorAt, writePpm or a direct writeColor), so
 * a frame whose image is never read is never shaded. Depth is always
 * current. Color reads are not thread-safe.
 */
class Framebuffer
{
  public:
    /** Where a deferred color pass writes each of its colors. */
    using ColorSink =
        std::function<void(uint32_t x, uint32_t y, const Texel &color)>;
    /** Color work run at the first use of the colors (see deferColor). */
    using ColorPass = std::function<void(const ColorSink &write)>;

    Framebuffer(uint32_t width, uint32_t height, AddressSpace &heap);

    uint32_t width() const { return width_; }
    uint32_t height() const { return height_; }

    /** Reset color and depth; deferred color passes are dropped unrun. */
    void clear(const Texel &color = {0.05f, 0.05f, 0.08f, 1.0f});

    /**
     * Queue @p pass to run before the next color read or direct write.
     * Whatever the pass references must live until then or until clear().
     */
    void deferColor(ColorPass pass);

    /** Depth test (less-than) and conditional depth write. */
    bool depthTestAndSet(uint32_t x, uint32_t y, float depth);

    /** Read current depth (1.0 = far plane). */
    float depthAt(uint32_t x, uint32_t y) const;

    void writeColor(uint32_t x, uint32_t y, const Texel &color);
    Texel colorAt(uint32_t x, uint32_t y) const;

    /** Address of the 4-byte color pixel (STG targets). */
    Addr colorAddr(uint32_t x, uint32_t y) const;
    /** Address of the 4-byte depth value. */
    Addr depthAddr(uint32_t x, uint32_t y) const;

    /** Dump color as a binary PPM. @return false on I/O failure. */
    bool writePpm(const std::string &path) const;

  private:
    /** Run the deferred color passes, in recording order. */
    void resolveColor() const;
    void storeColor(uint32_t x, uint32_t y, const Texel &color) const;

    uint32_t width_;
    uint32_t height_;
    Addr colorBase_;
    Addr depthBase_;
    // Resolving deferred passes from const reads writes the colors.
    mutable std::vector<uint8_t> color_;  // RGBA8
    mutable std::vector<ColorPass> pending_;
    std::vector<float> depth_;
};

} // namespace crisp

#endif // CRISP_GRAPHICS_FRAMEBUFFER_HPP
