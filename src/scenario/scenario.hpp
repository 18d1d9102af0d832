#ifndef CRISP_SCENARIO_SCENARIO_HPP
#define CRISP_SCENARIO_SCENARIO_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graphics/vec.hpp"
#include "partition/scheme.hpp"

namespace crisp::scenario
{

/**
 * @file
 * crisp::scenario — data-driven workload description files.
 *
 * A scenario file is one JSON document describing a complete submission:
 * the rendering side (a preset scene or an explicit mesh/material/draw
 * graph, resolution, batching knobs, per-frame deformation) and the
 * compute side (a preset workload or explicit kernel descriptions with
 * buffers, dependencies and an arrival schedule). The loader validates
 * the document against the schema below and resolves every named node,
 * so a file either produces exactly the submission it describes or a
 * single file:line:col-carrying rejection — never a partial build or a
 * fatal() deep inside a generator.
 *
 * `//` line comments are allowed (stripped before parsing, offsets
 * preserved so diagnostics still point at the right byte).
 *
 * The same file drives every entry point: `crisp_sim --scenario` and
 * the benches that load scenarios.
 */

/**
 * A rejected scenario: where and why. `file` is the path given to the
 * loader (or the caller's label for in-memory text); line/column are
 * 1-based and point at the offending JSON value.
 */
struct ScenarioError
{
    std::string file;
    uint32_t line = 0;
    uint32_t col = 0;
    std::string message;

    /** "file:line:col: message" (the compiler-diagnostic shape). */
    std::string str() const;
};

// --- Graphics side ---------------------------------------------------------

/** One named procedural mesh ("type" selects the Mesh::make* factory). */
struct MeshNode
{
    std::string name;
    std::string type;          ///< plane | sphere | box | cylinder | rock.
    uint32_t quads = 8;        ///< plane: quads per side.
    float size = 10.0f;        ///< plane: edge length.
    float uvTile = 1.0f;       ///< plane/box/cylinder: uv tiling factor.
    uint32_t stacks = 16;      ///< sphere/rock.
    uint32_t slices = 24;      ///< sphere/rock/cylinder.
    float radius = 1.0f;       ///< sphere/rock/cylinder.
    float height = 2.0f;       ///< cylinder.
    Vec3 extent{1.0f, 1.0f, 1.0f};  ///< box.
    uint64_t seed = 1;         ///< rock: noise seed.
};

/** One named material (built via the exported scene material helpers). */
struct MaterialNode
{
    std::string name;
    std::string shader = "basic";  ///< basic | pbr.
    uint32_t texDim = 256;
    uint64_t seed = 1;
    uint32_t extraAlu = 0;     ///< basic: extra per-fragment ALU ops.
    /** basic only: >1 builds a layered array texture (Planets-style);
     *  instanced draws then cycle instances through the layers. */
    uint32_t layers = 1;
};

/** One draw call referencing a mesh and material by name. */
struct DrawNode
{
    std::string name;
    std::string mesh;
    std::string material;
    Vec3 translate{0.0f, 0.0f, 0.0f};
    float scale = 1.0f;
    float rotateYDeg = 0.0f;
    /** >1 builds an instanced ring (the Planets asteroid-belt idiom):
     *  deterministic placement from instanceSeed at ringRadius. */
    uint32_t instances = 1;
    uint64_t instanceSeed = 303;
    float ringRadius = 10.0f;
};

struct CameraNode
{
    Vec3 eye{0.0f, 3.0f, 10.0f};
    Vec3 lookAt{0.0f, 0.0f, 0.0f};
    float fovDeg = 60.0f;
};

/**
 * Per-frame sinusoidal deformation of one mesh (animated/cloth content):
 * frame f re-tessellates `mesh` at time f*step through Mesh::deformed,
 * allocating fresh vertex/index buffers — the dynamic re-upload cost a
 * deforming mesh pays every frame.
 */
struct DeformNode
{
    bool enabled = false;
    std::string mesh;
    float amplitude = 0.05f;
    float frequency = 3.0f;
    float step = 0.5f;
};

struct GraphicsDesc
{
    bool present = false;
    /** Preset scene name (SPL|SPH|PT|IT|PL|MT); empty = explicit nodes. */
    std::string preset;
    std::vector<MeshNode> meshes;
    std::vector<MaterialNode> materials;
    std::vector<DrawNode> draws;
    CameraNode camera;
    uint32_t width = 640;
    uint32_t height = 360;
    bool lod = true;
    uint32_t frames = 1;
    uint32_t batchSize = 0;    ///< 0 = pipeline default.
    Cycle fixedFunctionDelay = 0;
    DeformNode deform;
    /** Device this stream runs on (num_gpus > 1; -1 = placement default). */
    int32_t device = -1;
};

// --- Compute side ----------------------------------------------------------

/** A named global-memory region kernels address their patterns at. */
struct BufferNode
{
    std::string name;
    uint64_t bytes = 1 << 20;
    /** Device whose heap window homes this buffer (num_gpus > 1;
     *  -1 = the compute stream's own device). A buffer homed away from
     *  the stream that reads it makes every miss a remote access. */
    int32_t device = -1;
};

/** One memory-access group of an explicit kernel. */
struct LoadNode
{
    /** Declared buffer name, or "frame_color" for the rendered frame's
     *  color buffer (requires a graphics side; the ATW idiom). */
    std::string buffer;
    std::string pattern = "streaming";  ///< streaming|stencil|gather|broadcast.
    uint32_t accessBytes = 4;
    uint32_t count = 1;
    uint32_t rowPitch = 640;
};

/** One explicit compute kernel (maps onto ComputeKernelDesc). */
struct KernelNode
{
    std::string name;
    uint32_t ctas = 64;
    uint32_t threadsPerCta = 256;
    uint32_t regsPerThread = 32;
    uint32_t smemPerCta = 0;
    uint32_t iterations = 1;
    uint32_t fp32Ops = 0;
    uint32_t intOps = 0;
    uint32_t sfuOps = 0;
    uint32_t tensorOps = 0;
    uint32_t smemLoads = 0;
    uint32_t smemStores = 0;
    bool barrierPerIteration = false;
    uint32_t divergenceExtraIters = 0;
    uint64_t divergenceSeed = 0;
    std::vector<LoadNode> loads;
    bool hasStore = false;
    LoadNode store;
    /** Launch dependency: name of an earlier kernel in this list. */
    std::string after;
    bool hasAfter = false;
    Cycle delay = 0;           ///< Extra cycles after `after` completes.
    Cycle at = 0;              ///< Arrival cycle (enqueueKernelAt).
    bool hasAt = false;
};

/** Burst-arrival schedule: the kernel list replayed `bursts` times,
 *  burst b arriving at cycle b*period (+ each kernel's own `at`), or —
 *  with a Poisson arrival model — at seeded-random cumulative
 *  exponential gaps around 1/rate_hz (deterministic for a fixed seed). */
struct ScheduleNode
{
    uint32_t bursts = 1;
    Cycle period = 0;
    /** "arrivals": {"kind": "poisson", "rate_hz": ..., "seed": ...}. */
    bool poisson = false;
    double rateHz = 0.0;
    uint64_t seed = 1;
};

struct ComputeDesc
{
    bool present = false;
    /** Preset workload (VIO|HOLO|NN|ATW); empty = explicit kernels. */
    std::string preset;
    uint32_t frames = 1;       ///< VIO.
    uint32_t width = 320;      ///< VIO / ATW.
    uint32_t height = 240;     ///< VIO / ATW.
    uint32_t points = 3;       ///< HOLO.
    uint32_t layers = 3;       ///< NN.
    std::vector<BufferNode> buffers;
    std::vector<KernelNode> kernels;
    ScheduleNode schedule;
    /** Device this stream runs on (num_gpus > 1; -1 = placement default). */
    int32_t device = -1;
};

// --- Whole scenario --------------------------------------------------------

/** How a multi-GPU scenario spreads its streams across devices. */
enum class Placement
{
    Split,      ///< Graphics and compute on different devices.
    Colocated,  ///< Both streams on one device, MPS-style SM split.
    Mig,        ///< Both on one device, MiG SM split + L2 bank masks.
};

struct GpuDesc
{
    std::string preset = "rtx3070";  ///< rtx3070 | orin.
    uint32_t numSms = 0;             ///< 0 = preset's count.
    /** Devices in the machine; 1 = classic single-GPU submission. */
    uint32_t numGpus = 1;
    /** Stream dispatch across devices (num_gpus > 1 only). */
    Placement placement = Placement::Split;
    /** How graphics and compute share the device (num_gpus == 1 only;
     *  any scheme but exhaustive needs both sides). */
    PartitionScheme partition = PartitionScheme::Exhaustive;
};

struct Scenario
{
    std::string name;
    GpuDesc gpu;
    GraphicsDesc graphics;
    ComputeDesc compute;

    /** Path (or caller label) the scenario was loaded from. */
    std::string sourceFile;
};

/**
 * Parse and validate scenario text. On failure returns false and fills
 * @p err with file:line:col coordinates of the offending value; @p out
 * is unspecified. @p file_label is used for diagnostics only.
 */
bool loadScenarioText(const std::string &text, const std::string &file_label,
                      Scenario &out, ScenarioError &err);

/** Read @p path and load it; missing/unreadable files are errors too. */
bool loadScenarioFile(const std::string &path, Scenario &out,
                      ScenarioError &err);

} // namespace crisp::scenario

#endif // CRISP_SCENARIO_SCENARIO_HPP
