#ifndef CRISP_ISA_TRACE_HPP
#define CRISP_ISA_TRACE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/opcode.hpp"

namespace crisp
{

/** Register sentinel: "no register operand". */
inline constexpr uint8_t kNoReg = 0xff;

/**
 * One executed warp instruction in a trace.
 *
 * Matches the information Accel-Sim's SASS traces carry per instruction:
 * opcode, register operands (for dependence tracking), the active mask, and
 * per-active-thread memory addresses for loads/stores/texture samples.
 */
struct TraceInstr
{
    Opcode opcode = Opcode::MOV;
    uint8_t dst = kNoReg;
    std::array<uint8_t, 3> srcs = {kNoReg, kNoReg, kNoReg};
    uint32_t activeMask = 0xffffffffu;

    /**
     * Per-active-thread byte addresses for memory instructions, in ascending
     * lane order (entry i belongs to the i-th set bit of activeMask).
     * Empty for non-memory instructions.
     */
    std::vector<Addr> addrs;
    /** Bytes accessed per thread (memory instructions only). */
    uint8_t accessBytes = 0;
    /** Data classification for L2-composition accounting. */
    DataClass dataClass = DataClass::Unknown;

    uint32_t activeLanes() const { return __builtin_popcount(activeMask); }
    bool hasDst() const { return dst != kNoReg; }
};

/** The ordered instruction stream of one warp. */
struct WarpTrace
{
    std::vector<TraceInstr> instrs;
    /** Number of live threads in this warp (<= kWarpSize). */
    uint32_t threadCount = kWarpSize;
};

/** All warps of one CTA (thread block). */
struct CtaTrace
{
    std::vector<WarpTrace> warps;

    uint64_t totalInstrs() const;
};

/** CUDA-style 3D extent. */
struct Dim3
{
    uint32_t x = 1;
    uint32_t y = 1;
    uint32_t z = 1;

    uint64_t count() const
    {
        return static_cast<uint64_t>(x) * y * z;
    }
    bool operator==(const Dim3 &) const = default;
};

/**
 * Lazily produces the trace of each CTA of a kernel.
 *
 * Full-resolution frames produce traces far too large to precompute (the
 * paper's artifact hits the same wall and samples frames); generators create
 * each CTA's instruction stream on demand, deterministically.
 */
class CtaGenerator
{
  public:
    virtual ~CtaGenerator() = default;

    /** Build the trace for linear CTA index @p cta_index (row-major). */
    virtual CtaTrace generate(uint32_t cta_index) const = 0;
};

/** Generator backed by pre-built traces (tests, small kernels). */
class VectorCtaSource : public CtaGenerator
{
  public:
    explicit VectorCtaSource(std::vector<CtaTrace> ctas)
        : ctas_(std::move(ctas))
    {
    }

    CtaTrace generate(uint32_t cta_index) const override;

    size_t size() const { return ctas_.size(); }

  private:
    std::vector<CtaTrace> ctas_;
};

/**
 * A launchable kernel: static launch parameters plus the trace source.
 *
 * Mirrors what the Accel-Sim tracer records in a kernel header: grid/CTA
 * dimensions, register and shared-memory requirements, and the stream the
 * kernel was submitted on.
 */
struct KernelInfo
{
    std::string name;
    StreamId stream = 0;
    Dim3 grid;
    Dim3 cta;
    uint32_t regsPerThread = 32;
    uint32_t smemPerCta = 0;
    /**
     * Drawcall this kernel belongs to (0 = not part of a drawcall). The
     * render pipeline assigns ids so telemetry can group a drawcall's
     * vertex- and fragment-stage kernels into one timeline span.
     */
    uint32_t drawcall = 0;
    std::shared_ptr<const CtaGenerator> source;

    uint32_t threadsPerCta() const
    {
        return static_cast<uint32_t>(cta.count());
    }
    uint32_t warpsPerCta() const
    {
        return (threadsPerCta() + kWarpSize - 1) / kWarpSize;
    }
    uint32_t numCtas() const { return static_cast<uint32_t>(grid.count()); }
};

/**
 * Coalesce a memory instruction's per-thread addresses into the set of
 * distinct 128 B cache lines it touches (deduplicated, ascending). This is
 * the access stream the L1 sees and the unit used by the paper's static
 * trace analysis (Fig 10).
 */
std::vector<Addr> coalesceToLines(const TraceInstr &instr);

/**
 * Out-param variant for hot paths: clears and refills @p out (same
 * contents and order as the returning overload) without allocating when
 * the vector's capacity already suffices.
 */
void coalesceToLines(const TraceInstr &instr, std::vector<Addr> &out);

/** Coalesce to distinct 32 B sectors instead of full lines. */
std::vector<Addr> coalesceToSectors(const TraceInstr &instr);

} // namespace crisp

#endif // CRISP_ISA_TRACE_HPP
