#include "scenario/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <set>

#include "common/json.hpp"

namespace crisp::scenario
{

std::string
ScenarioError::str() const
{
    return file + ":" + std::to_string(line) + ":" + std::to_string(col) +
           ": " + message;
}

namespace
{

/**
 * Strip `//` line comments, preserving byte offsets: every comment byte
 * (up to, not including, the newline) becomes a space, so offsets stamped
 * by the JSON parser still index the original file for diagnostics.
 * Comment markers inside string literals are left alone.
 */
std::string
stripComments(const std::string &text)
{
    std::string out = text;
    bool in_string = false;
    bool escaped = false;
    for (size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
            continue;
        }
        if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
            while (i < out.size() && out[i] != '\n') {
                out[i++] = ' ';
            }
        }
    }
    return out;
}

/**
 * Validation context: the source text (for offset -> line:col), the error
 * slot, and a sticky ok flag so every helper no-ops after the first
 * failure — the loader reports exactly one, earliest-detected error.
 */
struct Ctx
{
    const std::string &text;
    const std::string &file;
    ScenarioError &err;
    bool ok = true;

    bool
    fail(const Json &node, std::string msg)
    {
        if (!ok) {
            return false;
        }
        ok = false;
        err.file = file;
        const size_t off =
            node.srcOffset() == Json::kNoOffset ? 0 : node.srcOffset();
        Json::offsetToLineCol(text, off, err.line, err.col);
        err.message = std::move(msg);
        return false;
    }

    /** Reject keys outside the allowlist (typo'd or unsupported knobs). */
    bool
    checkKeys(const Json &obj, std::initializer_list<const char *> allowed)
    {
        if (!ok) {
            return false;
        }
        for (const auto &[key, value] : obj.fields()) {
            bool known = false;
            for (const char *a : allowed) {
                if (key == a) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                return fail(value, "unknown key \"" + key + "\"");
            }
        }
        return true;
    }

    /** Optional unsigned integer field with an inclusive range. */
    template <typename T>
    bool
    getUint(const Json &obj, const char *key, T &out, uint64_t min,
            uint64_t max)
    {
        if (!ok) {
            return false;
        }
        const Json *v = obj.find(key);
        if (!v) {
            return true;
        }
        if (!v->isNumber()) {
            return fail(*v, std::string(key) + " must be a number");
        }
        const double d = v->asDouble();
        if (d < 0 || d != std::floor(d)) {
            return fail(*v,
                        std::string(key) + " must be a non-negative integer");
        }
        const uint64_t u = v->asU64();
        if (u < min || u > max) {
            return fail(*v, std::string(key) + " must be in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got " +
                                std::to_string(u));
        }
        out = static_cast<T>(u);
        return true;
    }

    /** Optional finite float field with an inclusive range. */
    bool
    getFloat(const Json &obj, const char *key, float &out, double min,
             double max)
    {
        if (!ok) {
            return false;
        }
        const Json *v = obj.find(key);
        if (!v) {
            return true;
        }
        if (!v->isNumber()) {
            return fail(*v, std::string(key) + " must be a number");
        }
        const double d = v->asDouble();
        if (!std::isfinite(d) || d < min || d > max) {
            return fail(*v, std::string(key) + " must be in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]");
        }
        out = static_cast<float>(d);
        return true;
    }

    bool
    getBool(const Json &obj, const char *key, bool &out)
    {
        if (!ok) {
            return false;
        }
        const Json *v = obj.find(key);
        if (!v) {
            return true;
        }
        if (!v->isBool()) {
            return fail(*v, std::string(key) + " must be true or false");
        }
        out = v->asBool();
        return true;
    }

    bool
    getString(const Json &obj, const char *key, std::string &out)
    {
        if (!ok) {
            return false;
        }
        const Json *v = obj.find(key);
        if (!v) {
            return true;
        }
        if (!v->isString()) {
            return fail(*v, std::string(key) + " must be a string");
        }
        out = v->asString();
        return true;
    }

    /** Required string drawn from a closed set of alternatives. */
    bool
    getChoice(const Json &obj, const char *key, std::string &out,
              std::initializer_list<const char *> choices)
    {
        if (!getString(obj, key, out)) {
            return false;
        }
        if (!ok) {
            return false;
        }
        for (const char *c : choices) {
            if (out == c) {
                return true;
            }
        }
        std::string all;
        for (const char *c : choices) {
            all += all.empty() ? "" : "|";
            all += c;
        }
        const Json *v = obj.find(key);
        return fail(v ? *v : obj, std::string(key) + " must be one of " +
                                      all + ", got \"" + out + "\"");
    }

    /** Optional [x, y, z] array of finite numbers. */
    bool
    getVec3(const Json &obj, const char *key, Vec3 &out)
    {
        if (!ok) {
            return false;
        }
        const Json *v = obj.find(key);
        if (!v) {
            return true;
        }
        if (!v->isArray() || v->items().size() != 3) {
            return fail(*v, std::string(key) +
                                " must be an array of 3 numbers");
        }
        float xyz[3];
        for (size_t i = 0; i < 3; ++i) {
            const Json &e = v->items()[i];
            if (!e.isNumber() || !std::isfinite(e.asDouble())) {
                return fail(e, std::string(key) +
                                   " must be an array of 3 finite numbers");
            }
            xyz[i] = static_cast<float>(e.asDouble());
        }
        out = {xyz[0], xyz[1], xyz[2]};
        return true;
    }
};

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

bool
parseMesh(Ctx &c, const Json &node, MeshNode &out)
{
    if (!node.isObject()) {
        return c.fail(node, "mesh entry must be an object");
    }
    c.checkKeys(node, {"name", "type", "quads", "size", "uv_tile", "stacks",
                       "slices", "radius", "height", "extent", "seed"});
    c.getString(node, "name", out.name);
    c.getChoice(node, "type", out.type,
                {"plane", "sphere", "box", "cylinder", "rock"});
    c.getUint(node, "quads", out.quads, 1, 256);
    c.getFloat(node, "size", out.size, 0.01, 1000.0);
    c.getFloat(node, "uv_tile", out.uvTile, 0.01, 256.0);
    c.getUint(node, "stacks", out.stacks, 2, 256);
    c.getUint(node, "slices", out.slices, 3, 256);
    c.getFloat(node, "radius", out.radius, 0.01, 1000.0);
    c.getFloat(node, "height", out.height, 0.01, 1000.0);
    c.getVec3(node, "extent", out.extent);
    c.getUint(node, "seed", out.seed, 0, ~0ull >> 1);
    if (c.ok && out.name.empty()) {
        return c.fail(node, "mesh needs a non-empty \"name\"");
    }
    if (c.ok && out.type.empty()) {
        return c.fail(node, "mesh \"" + out.name + "\" needs a \"type\"");
    }
    if (c.ok && (out.extent.x <= 0 || out.extent.y <= 0 ||
                 out.extent.z <= 0)) {
        return c.fail(*node.find("extent"),
                      "extent components must be positive");
    }
    return c.ok;
}

bool
parseMaterial(Ctx &c, const Json &node, MaterialNode &out)
{
    if (!node.isObject()) {
        return c.fail(node, "material entry must be an object");
    }
    c.checkKeys(node,
                {"name", "shader", "tex_dim", "seed", "extra_alu", "layers"});
    c.getString(node, "name", out.name);
    if (node.find("shader")) {
        c.getChoice(node, "shader", out.shader, {"basic", "pbr"});
    }
    c.getUint(node, "tex_dim", out.texDim, 16, 2048);
    c.getUint(node, "seed", out.seed, 0, ~0ull >> 1);
    c.getUint(node, "extra_alu", out.extraAlu, 0, 1024);
    c.getUint(node, "layers", out.layers, 1, 64);
    if (c.ok && out.name.empty()) {
        return c.fail(node, "material needs a non-empty \"name\"");
    }
    if (c.ok && !isPowerOfTwo(out.texDim)) {
        return c.fail(*node.find("tex_dim"),
                      "tex_dim must be a power of two");
    }
    if (c.ok && out.shader == "pbr" && out.layers > 1) {
        return c.fail(*node.find("layers"),
                      "layered array textures need shader \"basic\"");
    }
    if (c.ok && out.shader == "pbr" && out.extraAlu > 0) {
        return c.fail(*node.find("extra_alu"),
                      "extra_alu applies to shader \"basic\" only");
    }
    return c.ok;
}

bool
parseDraw(Ctx &c, const Json &node, DrawNode &out)
{
    if (!node.isObject()) {
        return c.fail(node, "draw entry must be an object");
    }
    c.checkKeys(node, {"name", "mesh", "material", "translate", "scale",
                       "rotate_y_deg", "instances", "instance_seed",
                       "ring_radius"});
    c.getString(node, "name", out.name);
    c.getString(node, "mesh", out.mesh);
    c.getString(node, "material", out.material);
    c.getVec3(node, "translate", out.translate);
    c.getFloat(node, "scale", out.scale, 0.001, 1000.0);
    c.getFloat(node, "rotate_y_deg", out.rotateYDeg, -360.0, 360.0);
    c.getUint(node, "instances", out.instances, 1, 4096);
    c.getUint(node, "instance_seed", out.instanceSeed, 0, ~0ull >> 1);
    c.getFloat(node, "ring_radius", out.ringRadius, 0.1, 1000.0);
    if (c.ok && out.name.empty()) {
        return c.fail(node, "draw needs a non-empty \"name\"");
    }
    if (c.ok && out.mesh.empty()) {
        return c.fail(node, "draw \"" + out.name + "\" needs a \"mesh\"");
    }
    if (c.ok && out.material.empty()) {
        return c.fail(node,
                      "draw \"" + out.name + "\" needs a \"material\"");
    }
    return c.ok;
}

/**
 * Optional "device" field of a workload or buffer node: which device of
 * an n-GPU machine it lives on. Rejected outright on a single-GPU
 * machine so a file cannot silently describe traffic that cannot exist.
 */
bool
parseDevice(Ctx &c, const Json &node, uint32_t num_gpus, int32_t &out)
{
    const Json *v = node.find("device");
    if (!v || !c.ok) {
        return c.ok;
    }
    if (num_gpus <= 1) {
        return c.fail(*v, "\"device\" needs gpu.num_gpus > 1");
    }
    uint32_t device = 0;
    if (!c.getUint(node, "device", device, 0, num_gpus - 1)) {
        return false;
    }
    out = static_cast<int32_t>(device);
    return true;
}

bool
parseGraphics(Ctx &c, const Json &node, GraphicsDesc &out,
              uint32_t num_gpus)
{
    if (!node.isObject()) {
        return c.fail(node, "\"graphics\" must be an object");
    }
    out.present = true;
    c.checkKeys(node, {"preset", "meshes", "materials", "draws", "camera",
                       "width", "height", "lod", "frames", "batch_size",
                       "fixed_function_delay", "animation", "device"});
    parseDevice(c, node, num_gpus, out.device);
    if (node.find("preset")) {
        c.getChoice(node, "preset", out.preset,
                    {"SPL", "SPH", "PT", "IT", "PL", "MT"});
    }
    c.getUint(node, "width", out.width, 16, 4096);
    c.getUint(node, "height", out.height, 16, 4096);
    c.getBool(node, "lod", out.lod);
    c.getUint(node, "frames", out.frames, 1, 64);
    c.getUint(node, "batch_size", out.batchSize, 0, 1024);
    c.getUint(node, "fixed_function_delay", out.fixedFunctionDelay, 0,
              1'000'000'000ull);
    if (!c.ok) {
        return false;
    }

    const bool explicit_nodes = node.find("meshes") ||
        node.find("materials") || node.find("draws") || node.find("camera");
    if (!out.preset.empty() && explicit_nodes) {
        return c.fail(node, "\"preset\" excludes explicit "
                            "meshes/materials/draws/camera nodes");
    }
    if (out.preset.empty() && !explicit_nodes) {
        return c.fail(node, "graphics needs a \"preset\" or explicit "
                            "meshes/materials/draws");
    }

    std::set<std::string> mesh_names;
    std::set<std::string> material_names;
    if (out.preset.empty()) {
        const Json *meshes = node.find("meshes");
        const Json *materials = node.find("materials");
        const Json *draws = node.find("draws");
        if (!meshes || !meshes->isArray() || meshes->items().empty()) {
            return c.fail(meshes ? *meshes : node,
                          "\"meshes\" must be a non-empty array");
        }
        if (!materials || !materials->isArray() ||
            materials->items().empty()) {
            return c.fail(materials ? *materials : node,
                          "\"materials\" must be a non-empty array");
        }
        if (!draws || !draws->isArray() || draws->items().empty()) {
            return c.fail(draws ? *draws : node,
                          "\"draws\" must be a non-empty array");
        }
        for (const Json &m : meshes->items()) {
            MeshNode mesh;
            if (!parseMesh(c, m, mesh)) {
                return false;
            }
            if (!mesh_names.insert(mesh.name).second) {
                return c.fail(m, "duplicate mesh \"" + mesh.name + "\"");
            }
            out.meshes.push_back(std::move(mesh));
        }
        for (const Json &m : materials->items()) {
            MaterialNode mat;
            if (!parseMaterial(c, m, mat)) {
                return false;
            }
            if (!material_names.insert(mat.name).second) {
                return c.fail(m, "duplicate material \"" + mat.name + "\"");
            }
            out.materials.push_back(std::move(mat));
        }
        std::set<std::string> draw_names;
        for (const Json &d : draws->items()) {
            DrawNode draw;
            if (!parseDraw(c, d, draw)) {
                return false;
            }
            if (!draw_names.insert(draw.name).second) {
                return c.fail(d, "duplicate draw \"" + draw.name + "\"");
            }
            if (!mesh_names.count(draw.mesh)) {
                return c.fail(d, "draw \"" + draw.name +
                                     "\" references unknown mesh \"" +
                                     draw.mesh + "\"");
            }
            if (!material_names.count(draw.material)) {
                return c.fail(d, "draw \"" + draw.name +
                                     "\" references unknown material \"" +
                                     draw.material + "\"");
            }
            out.draws.push_back(std::move(draw));
        }
        if (const Json *cam = node.find("camera")) {
            if (!cam->isObject()) {
                return c.fail(*cam, "\"camera\" must be an object");
            }
            c.checkKeys(*cam, {"eye", "look_at", "fov_deg"});
            c.getVec3(*cam, "eye", out.camera.eye);
            c.getVec3(*cam, "look_at", out.camera.lookAt);
            c.getFloat(*cam, "fov_deg", out.camera.fovDeg, 10.0, 170.0);
            if (!c.ok) {
                return false;
            }
        }
    }

    if (const Json *anim = node.find("animation")) {
        if (!anim->isObject()) {
            return c.fail(*anim, "\"animation\" must be an object");
        }
        c.checkKeys(*anim, {"deform"});
        const Json *deform = anim->find("deform");
        if (!deform) {
            return c.fail(*anim, "\"animation\" needs a \"deform\" object");
        }
        if (!deform->isObject()) {
            return c.fail(*deform, "\"deform\" must be an object");
        }
        c.checkKeys(*deform, {"mesh", "amplitude", "frequency", "step"});
        out.deform.enabled = true;
        c.getString(*deform, "mesh", out.deform.mesh);
        c.getFloat(*deform, "amplitude", out.deform.amplitude, 0.0, 100.0);
        c.getFloat(*deform, "frequency", out.deform.frequency, 0.0, 1000.0);
        c.getFloat(*deform, "step", out.deform.step, 0.0, 100.0);
        if (!c.ok) {
            return false;
        }
        if (!out.preset.empty()) {
            return c.fail(*deform,
                          "deform animation needs explicit meshes, not a "
                          "preset scene");
        }
        if (!mesh_names.count(out.deform.mesh)) {
            return c.fail(*deform, "deform references unknown mesh \"" +
                                       out.deform.mesh + "\"");
        }
    }
    return c.ok;
}

bool
parseLoad(Ctx &c, const Json &node, LoadNode &out, const char *what)
{
    if (!node.isObject()) {
        return c.fail(node, std::string(what) + " must be an object");
    }
    c.checkKeys(node,
                {"buffer", "pattern", "access_bytes", "count", "row_pitch"});
    c.getString(node, "buffer", out.buffer);
    if (node.find("pattern")) {
        c.getChoice(node, "pattern", out.pattern,
                    {"streaming", "stencil", "gather", "broadcast"});
    }
    c.getUint(node, "access_bytes", out.accessBytes, 1, 16);
    c.getUint(node, "count", out.count, 1, 64);
    c.getUint(node, "row_pitch", out.rowPitch, 1, 1 << 20);
    if (c.ok && out.buffer.empty()) {
        return c.fail(node, std::string(what) + " needs a \"buffer\"");
    }
    if (c.ok && !isPowerOfTwo(out.accessBytes)) {
        return c.fail(*node.find("access_bytes"),
                      "access_bytes must be a power of two");
    }
    return c.ok;
}

bool
parseKernel(Ctx &c, const Json &node, KernelNode &out,
            const std::set<std::string> &buffer_names, bool has_graphics)
{
    if (!node.isObject()) {
        return c.fail(node, "kernel entry must be an object");
    }
    c.checkKeys(node, {"name", "ctas", "threads_per_cta", "regs_per_thread",
                       "smem_per_cta", "iterations", "fp32_ops", "int_ops",
                       "sfu_ops", "tensor_ops", "smem_loads", "smem_stores",
                       "barrier_per_iteration", "divergence", "loads",
                       "store", "after", "delay", "at"});
    c.getString(node, "name", out.name);
    c.getUint(node, "ctas", out.ctas, 1, 65536);
    c.getUint(node, "threads_per_cta", out.threadsPerCta, 32, 1024);
    c.getUint(node, "regs_per_thread", out.regsPerThread, 1, 255);
    c.getUint(node, "smem_per_cta", out.smemPerCta, 0, 1 << 20);
    c.getUint(node, "iterations", out.iterations, 1, 65536);
    c.getUint(node, "fp32_ops", out.fp32Ops, 0, 4096);
    c.getUint(node, "int_ops", out.intOps, 0, 4096);
    c.getUint(node, "sfu_ops", out.sfuOps, 0, 4096);
    c.getUint(node, "tensor_ops", out.tensorOps, 0, 4096);
    c.getUint(node, "smem_loads", out.smemLoads, 0, 4096);
    c.getUint(node, "smem_stores", out.smemStores, 0, 4096);
    c.getBool(node, "barrier_per_iteration", out.barrierPerIteration);
    c.getUint(node, "delay", out.delay, 0, 1'000'000'000ull);
    if (!c.ok) {
        return false;
    }
    if (out.name.empty()) {
        return c.fail(node, "kernel needs a non-empty \"name\"");
    }
    if (out.threadsPerCta % 32 != 0) {
        return c.fail(*node.find("threads_per_cta"),
                      "threads_per_cta must be a multiple of 32");
    }
    if (const Json *div = node.find("divergence")) {
        if (!div->isObject()) {
            return c.fail(*div, "\"divergence\" must be an object");
        }
        c.checkKeys(*div, {"extra_iterations", "seed"});
        c.getUint(*div, "extra_iterations", out.divergenceExtraIters, 1,
                  1024);
        c.getUint(*div, "seed", out.divergenceSeed, 0, ~0ull >> 1);
        if (!c.ok) {
            return false;
        }
    }
    if (const Json *loads = node.find("loads")) {
        if (!loads->isArray()) {
            return c.fail(*loads, "\"loads\" must be an array");
        }
        if (loads->items().size() > 8) {
            return c.fail(*loads, "at most 8 load groups per kernel");
        }
        for (const Json &l : loads->items()) {
            LoadNode load;
            if (!parseLoad(c, l, load, "load entry")) {
                return false;
            }
            if (!buffer_names.count(load.buffer) &&
                !(load.buffer == "frame_color" && has_graphics)) {
                return c.fail(l, "load references unknown buffer \"" +
                                     load.buffer + "\"" +
                                     (load.buffer == "frame_color"
                                          ? " (frame_color needs a "
                                            "graphics side)"
                                          : ""));
            }
            out.loads.push_back(std::move(load));
        }
    }
    if (const Json *store = node.find("store")) {
        if (!parseLoad(c, *store, out.store, "\"store\"")) {
            return false;
        }
        if (!buffer_names.count(out.store.buffer)) {
            return c.fail(*store, "store references unknown buffer \"" +
                                      out.store.buffer + "\"");
        }
        out.hasStore = true;
    }
    if (const Json *after = node.find("after")) {
        if (!after->isString() || after->asString().empty()) {
            return c.fail(*after, "\"after\" must name an earlier kernel");
        }
        out.after = after->asString();
        out.hasAfter = true;
    }
    if (const Json *at = node.find("at")) {
        out.hasAt = true;
        c.getUint(node, "at", out.at, 0, 1'000'000'000'000ull);
        if (!c.ok) {
            return false;
        }
        if (out.hasAfter) {
            return c.fail(*at, "\"at\" and \"after\" are mutually "
                               "exclusive");
        }
    }
    if (out.hasAfter && node.find("delay") == nullptr) {
        out.delay = 0;
    }
    if (!out.hasAfter && out.delay != 0) {
        return c.fail(*node.find("delay"),
                      "\"delay\" needs an \"after\" dependency");
    }
    return c.ok;
}

bool
parseCompute(Ctx &c, const Json &node, ComputeDesc &out, bool has_graphics,
             uint32_t num_gpus)
{
    if (!node.isObject()) {
        return c.fail(node, "\"compute\" must be an object");
    }
    out.present = true;
    c.checkKeys(node, {"preset", "frames", "width", "height", "points",
                       "layers", "buffers", "kernels", "schedule",
                       "device"});
    if (!parseDevice(c, node, num_gpus, out.device)) {
        return false;
    }
    if (node.find("preset")) {
        c.getChoice(node, "preset", out.preset,
                    {"VIO", "HOLO", "NN", "ATW"});
    }
    c.getUint(node, "frames", out.frames, 1, 64);
    c.getUint(node, "width", out.width, 16, 4096);
    c.getUint(node, "height", out.height, 16, 4096);
    c.getUint(node, "points", out.points, 1, 64);
    c.getUint(node, "layers", out.layers, 1, 64);
    if (!c.ok) {
        return false;
    }

    const bool explicit_nodes = node.find("buffers") || node.find("kernels");
    if (!out.preset.empty() && explicit_nodes) {
        return c.fail(node,
                      "\"preset\" excludes explicit buffers/kernels");
    }
    if (out.preset.empty() && !explicit_nodes) {
        return c.fail(node, "compute needs a \"preset\" or explicit "
                            "\"kernels\"");
    }
    if (!out.preset.empty() && node.find("schedule")) {
        return c.fail(*node.find("schedule"),
                      "\"schedule\" needs explicit kernels, not a preset");
    }

    std::set<std::string> buffer_names;
    if (out.preset.empty()) {
        uint64_t total_bytes = 0;
        if (const Json *buffers = node.find("buffers")) {
            if (!buffers->isArray()) {
                return c.fail(*buffers, "\"buffers\" must be an array");
            }
            for (const Json &b : buffers->items()) {
                if (!b.isObject()) {
                    return c.fail(b, "buffer entry must be an object");
                }
                c.checkKeys(b, {"name", "bytes", "device"});
                BufferNode buf;
                c.getString(b, "name", buf.name);
                c.getUint(b, "bytes", buf.bytes, 4096, 1ull << 30);
                if (!parseDevice(c, b, num_gpus, buf.device)) {
                    return false;
                }
                if (!c.ok) {
                    return false;
                }
                if (buf.name.empty()) {
                    return c.fail(b, "buffer needs a non-empty \"name\"");
                }
                if (buf.name == "frame_color") {
                    return c.fail(b, "\"frame_color\" is reserved for the "
                                     "rendered frame's color buffer");
                }
                if (!buffer_names.insert(buf.name).second) {
                    return c.fail(b, "duplicate buffer \"" + buf.name +
                                         "\"");
                }
                total_bytes += buf.bytes;
                if (total_bytes > (4ull << 30)) {
                    return c.fail(b, "buffers exceed the 4 GiB heap "
                                     "budget");
                }
                out.buffers.push_back(std::move(buf));
            }
        }
        const Json *kernels = node.find("kernels");
        if (!kernels || !kernels->isArray() || kernels->items().empty()) {
            return c.fail(kernels ? *kernels : node,
                          "\"kernels\" must be a non-empty array");
        }
        if (kernels->items().size() > 64) {
            return c.fail(*kernels, "at most 64 kernels per scenario");
        }
        std::set<std::string> kernel_names;
        Cycle last_at = 0;
        for (const Json &k : kernels->items()) {
            KernelNode kn;
            if (!parseKernel(c, k, kn, buffer_names, has_graphics)) {
                return false;
            }
            if (!kernel_names.insert(kn.name).second) {
                return c.fail(k, "duplicate kernel \"" + kn.name + "\"");
            }
            if (kn.hasAfter) {
                bool found = false;
                for (const KernelNode &prev : out.kernels) {
                    if (prev.name == kn.after) {
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    return c.fail(k, "kernel \"" + kn.name +
                                         "\" depends on \"" + kn.after +
                                         "\" which is not an earlier "
                                         "kernel");
                }
            } else {
                // Stream order is FIFO: a later arrival in front of an
                // earlier one would stall the queue, so arrival times
                // must be non-decreasing in list order.
                if (kn.at < last_at) {
                    return c.fail(k, "kernel \"" + kn.name +
                                         "\" arrives before the previous "
                                         "kernel (\"at\" must be "
                                         "non-decreasing)");
                }
                last_at = kn.at;
            }
            out.kernels.push_back(std::move(kn));
        }
        if (const Json *sched = node.find("schedule")) {
            if (!sched->isObject()) {
                return c.fail(*sched, "\"schedule\" must be an object");
            }
            c.checkKeys(*sched, {"bursts", "period", "arrivals"});
            c.getUint(*sched, "bursts", out.schedule.bursts, 1, 1024);
            c.getUint(*sched, "period", out.schedule.period, 0,
                      1'000'000'000'000ull);
            if (!c.ok) {
                return false;
            }
            if (const Json *arr = sched->find("arrivals")) {
                if (!arr->isObject()) {
                    return c.fail(*arr, "\"arrivals\" must be an object");
                }
                if (sched->find("period")) {
                    return c.fail(*arr, "\"arrivals\" and \"period\" are "
                                        "mutually exclusive");
                }
                c.checkKeys(*arr, {"kind", "rate_hz", "seed"});
                std::string kind;
                c.getChoice(*arr, "kind", kind, {"poisson"});
                if (!arr->find("rate_hz")) {
                    return c.fail(*arr, "\"arrivals\" needs a \"rate_hz\"");
                }
                float rate = 0.0f;
                c.getFloat(*arr, "rate_hz", rate, 0.001, 1.0e9);
                c.getUint(*arr, "seed", out.schedule.seed, 0,
                          ~0ull);
                if (!c.ok) {
                    return false;
                }
                out.schedule.poisson = true;
                out.schedule.rateHz = static_cast<double>(rate);
            } else if (out.schedule.bursts > 1 &&
                       out.schedule.period == 0) {
                return c.fail(*sched, "bursts > 1 needs a non-zero "
                                      "\"period\" or an \"arrivals\" "
                                      "model");
            }
        }
    }
    return c.ok;
}

} // namespace

bool
loadScenarioText(const std::string &text, const std::string &file_label,
                 Scenario &out, ScenarioError &err)
{
    out = Scenario();
    out.sourceFile = file_label;

    const std::string stripped = stripComments(text);
    Json doc;
    std::string parse_err;
    if (!Json::parse(stripped, doc, parse_err)) {
        // Parse errors carry "offset N: what"; convert to line:col.
        err.file = file_label;
        size_t off = 0;
        if (std::sscanf(parse_err.c_str(), "offset %zu:", &off) == 1) {
            const size_t colon = parse_err.find(": ");
            if (colon != std::string::npos) {
                parse_err = parse_err.substr(colon + 2);
            }
        }
        Json::offsetToLineCol(stripped, off, err.line, err.col);
        err.message = parse_err;
        return false;
    }

    Ctx c{stripped, file_label, err};
    if (!doc.isObject()) {
        return c.fail(doc, "scenario must be a JSON object");
    }
    c.checkKeys(doc, {"crisp_scenario", "name", "gpu", "graphics",
                      "compute"});
    if (!c.ok) {
        return false;
    }
    const Json *version = doc.find("crisp_scenario");
    if (!version || !version->isNumber() || version->asU64(0) != 1) {
        return c.fail(version ? *version : doc,
                      "scenario needs \"crisp_scenario\": 1");
    }
    c.getString(doc, "name", out.name);
    if (c.ok && out.name.empty()) {
        return c.fail(doc, "scenario needs a non-empty \"name\"");
    }
    const Json *partition = nullptr;
    if (const Json *gpu = doc.find("gpu")) {
        if (!gpu->isObject()) {
            return c.fail(*gpu, "\"gpu\" must be an object");
        }
        c.checkKeys(*gpu, {"preset", "num_sms", "num_gpus", "placement",
                           "partition"});
        if (gpu->find("preset")) {
            c.getChoice(*gpu, "preset", out.gpu.preset,
                        {"rtx3070", "orin"});
        }
        c.getUint(*gpu, "num_sms", out.gpu.numSms, 0, 128);
        c.getUint(*gpu, "num_gpus", out.gpu.numGpus, 1, 8);
        if (const Json *pl = gpu->find("placement")) {
            if (out.gpu.numGpus <= 1) {
                return c.fail(*pl, "\"placement\" needs num_gpus > 1");
            }
            std::string placement;
            c.getChoice(*gpu, "placement", placement,
                        {"split", "colocated", "mig"});
            if (!c.ok) {
                return false;
            }
            out.gpu.placement = placement == "split"
                                    ? Placement::Split
                                    : (placement == "colocated"
                                           ? Placement::Colocated
                                           : Placement::Mig);
        }
        if ((partition = gpu->find("partition"))) {
            if (out.gpu.numGpus > 1) {
                return c.fail(*partition,
                              "\"partition\" needs num_gpus == 1 (a "
                              "multi-GPU scenario's placement decides)");
            }
            std::string name;
            c.getString(*gpu, "partition", name);
            if (c.ok && !parsePartitionScheme(name, out.gpu.partition)) {
                return c.fail(*partition,
                              "partition must be one of " +
                                  partitionSchemeNames() + ", got \"" +
                                  name + "\"");
            }
        }
        if (!c.ok) {
            return false;
        }
    }
    if (const Json *gfx = doc.find("graphics")) {
        if (!parseGraphics(c, *gfx, out.graphics, out.gpu.numGpus)) {
            return false;
        }
    }
    if (const Json *cmp = doc.find("compute")) {
        if (!parseCompute(c, *cmp, out.compute, out.graphics.present,
                          out.gpu.numGpus)) {
            return false;
        }
    }
    if (!out.graphics.present && !out.compute.present) {
        return c.fail(doc, "scenario needs a \"graphics\" and/or "
                           "\"compute\" section");
    }
    if (out.gpu.partition != PartitionScheme::Exhaustive &&
        !(out.graphics.present && out.compute.present)) {
        return c.fail(*partition,
                      std::string("partition \"") +
                          partitionSchemeName(out.gpu.partition) +
                          "\" needs both a \"graphics\" and a "
                          "\"compute\" section");
    }
    return c.ok;
}

bool
loadScenarioFile(const std::string &path, Scenario &out, ScenarioError &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = {path, 0, 0, "cannot open scenario file"};
        return false;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        err = {path, 0, 0, "error reading scenario file"};
        return false;
    }
    return loadScenarioText(text, path, out, err);
}

} // namespace crisp::scenario
