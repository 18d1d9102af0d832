#ifndef CRISP_ISA_TRACE_BUILDER_HPP
#define CRISP_ISA_TRACE_BUILDER_HPP

#include <vector>

#include "isa/trace.hpp"

namespace crisp
{

/**
 * Fluent helper for emitting warp traces.
 *
 * Workload generators and the shader lowering pass use this to keep
 * instruction emission readable. Register numbers are caller-managed; the
 * builder only assembles TraceInstr records.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(uint32_t thread_count = kWarpSize);

    /** Make room for @p count instructions in the warp being built. */
    TraceBuilder &reserve(size_t count);

    /** Restrict subsequent instructions to the given active mask. */
    TraceBuilder &mask(uint32_t active_mask);

    /** Emit an ALU-style instruction (FP32/INT/SFU/Tensor). */
    TraceBuilder &alu(Opcode op, uint8_t dst, uint8_t s0 = kNoReg,
                      uint8_t s1 = kNoReg, uint8_t s2 = kNoReg);

    /** Emit @p count back-to-back ALU instructions forming a dep chain. */
    TraceBuilder &aluChain(Opcode op, uint8_t dst, uint8_t src,
                           uint32_t count);

    /**
     * Emit a memory instruction. @p addrs holds one address per active lane
     * in ascending lane order.
     */
    TraceBuilder &mem(Opcode op, uint8_t dst, std::vector<Addr> addrs,
                      uint8_t bytes, DataClass cls,
                      uint8_t addr_src = kNoReg);

    /** Load with a linear per-lane stride: lane i reads base + i * stride. */
    TraceBuilder &memStrided(Opcode op, uint8_t dst, Addr base,
                             uint32_t stride, uint8_t bytes, DataClass cls);

    /** All active lanes access the same address (broadcast/uniform). */
    TraceBuilder &memUniform(Opcode op, uint8_t dst, Addr addr, uint8_t bytes,
                             DataClass cls);

    /** CTA-wide barrier. */
    TraceBuilder &bar();

    /** Terminate the warp. */
    TraceBuilder &exit();

    /** Number of instructions emitted so far. */
    size_t size() const { return trace_.instrs.size(); }

    /** Take the assembled warp trace (builder resets). */
    WarpTrace take();

  private:
    WarpTrace trace_;
    uint32_t curMask_;
    uint32_t fullMask_;
};

} // namespace crisp

#endif // CRISP_ISA_TRACE_BUILDER_HPP
