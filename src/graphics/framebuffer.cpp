#include "graphics/framebuffer.hpp"

#include <algorithm>
#include <fstream>

#include "common/logging.hpp"

namespace crisp
{

Framebuffer::Framebuffer(uint32_t width, uint32_t height, AddressSpace &heap)
    : width_(width), height_(height)
{
    fatal_if(width == 0 || height == 0, "framebuffer with zero dimension");
    colorBase_ = heap.alloc(4ull * width * height);
    depthBase_ = heap.alloc(4ull * width * height);
    color_.resize(4ull * width * height);
    depth_.resize(static_cast<size_t>(width) * height);
    clear();
}

void
Framebuffer::clear(const Texel &c)
{
    pending_.clear();
    for (size_t i = 0; i < depth_.size(); ++i) {
        depth_[i] = 1.0f;
        color_[4 * i + 0] = static_cast<uint8_t>(c.r * 255.0f);
        color_[4 * i + 1] = static_cast<uint8_t>(c.g * 255.0f);
        color_[4 * i + 2] = static_cast<uint8_t>(c.b * 255.0f);
        color_[4 * i + 3] = static_cast<uint8_t>(c.a * 255.0f);
    }
}

bool
Framebuffer::depthTestAndSet(uint32_t x, uint32_t y, float depth)
{
    panic_if(x >= width_ || y >= height_, "depth test out of bounds");
    float &d = depth_[static_cast<size_t>(y) * width_ + x];
    if (depth < d) {
        d = depth;
        return true;
    }
    return false;
}

float
Framebuffer::depthAt(uint32_t x, uint32_t y) const
{
    panic_if(x >= width_ || y >= height_, "depth read out of bounds");
    return depth_[static_cast<size_t>(y) * width_ + x];
}

void
Framebuffer::deferColor(ColorPass pass)
{
    pending_.push_back(std::move(pass));
}

void
Framebuffer::resolveColor() const
{
    if (pending_.empty()) {
        return;
    }
    std::vector<ColorPass> passes;
    passes.swap(pending_);
    const ColorSink sink = [this](uint32_t x, uint32_t y, const Texel &c) {
        storeColor(x, y, c);
    };
    for (const ColorPass &pass : passes) {
        pass(sink);
    }
}

void
Framebuffer::writeColor(uint32_t x, uint32_t y, const Texel &c)
{
    resolveColor();
    storeColor(x, y, c);
}

void
Framebuffer::storeColor(uint32_t x, uint32_t y, const Texel &c) const
{
    panic_if(x >= width_ || y >= height_, "color write out of bounds");
    const size_t i = (static_cast<size_t>(y) * width_ + x) * 4;
    color_[i + 0] = static_cast<uint8_t>(std::clamp(c.r, 0.0f, 1.0f) * 255);
    color_[i + 1] = static_cast<uint8_t>(std::clamp(c.g, 0.0f, 1.0f) * 255);
    color_[i + 2] = static_cast<uint8_t>(std::clamp(c.b, 0.0f, 1.0f) * 255);
    color_[i + 3] = static_cast<uint8_t>(std::clamp(c.a, 0.0f, 1.0f) * 255);
}

Texel
Framebuffer::colorAt(uint32_t x, uint32_t y) const
{
    panic_if(x >= width_ || y >= height_, "color read out of bounds");
    resolveColor();
    const size_t i = (static_cast<size_t>(y) * width_ + x) * 4;
    return {color_[i] / 255.0f, color_[i + 1] / 255.0f,
            color_[i + 2] / 255.0f, color_[i + 3] / 255.0f};
}

Addr
Framebuffer::colorAddr(uint32_t x, uint32_t y) const
{
    return colorBase_ + 4ull * (static_cast<Addr>(y) * width_ + x);
}

Addr
Framebuffer::depthAddr(uint32_t x, uint32_t y) const
{
    return depthBase_ + 4ull * (static_cast<Addr>(y) * width_ + x);
}

bool
Framebuffer::writePpm(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f) {
        warn("cannot write PPM to %s", path.c_str());
        return false;
    }
    resolveColor();
    f << "P6\n" << width_ << " " << height_ << "\n255\n";
    for (size_t i = 0; i < depth_.size(); ++i) {
        f.put(static_cast<char>(color_[4 * i]));
        f.put(static_cast<char>(color_[4 * i + 1]));
        f.put(static_cast<char>(color_[4 * i + 2]));
    }
    return static_cast<bool>(f);
}

} // namespace crisp
