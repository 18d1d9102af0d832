#include "isa/trace_builder.hpp"

#include "common/logging.hpp"

namespace crisp
{

TraceBuilder::TraceBuilder(uint32_t thread_count)
{
    panic_if(thread_count == 0 || thread_count > kWarpSize,
             "warp thread count %u out of range", thread_count);
    trace_.threadCount = thread_count;
    fullMask_ = thread_count == kWarpSize ? 0xffffffffu
                                          : ((1u << thread_count) - 1);
    curMask_ = fullMask_;
}

TraceBuilder &
TraceBuilder::reserve(size_t count)
{
    trace_.instrs.reserve(count);
    return *this;
}

TraceBuilder &
TraceBuilder::mask(uint32_t active_mask)
{
    curMask_ = active_mask & fullMask_;
    return *this;
}

TraceBuilder &
TraceBuilder::alu(Opcode op, uint8_t dst, uint8_t s0, uint8_t s1, uint8_t s2)
{
    TraceInstr in;
    in.opcode = op;
    in.dst = dst;
    in.srcs = {s0, s1, s2};
    in.activeMask = curMask_;
    trace_.instrs.push_back(std::move(in));
    return *this;
}

TraceBuilder &
TraceBuilder::aluChain(Opcode op, uint8_t dst, uint8_t src, uint32_t count)
{
    for (uint32_t i = 0; i < count; ++i) {
        // dst depends on previous dst write: serial chain.
        alu(op, dst, dst, src);
    }
    return *this;
}

TraceBuilder &
TraceBuilder::mem(Opcode op, uint8_t dst, std::vector<Addr> addrs,
                  uint8_t bytes, DataClass cls, uint8_t addr_src)
{
    panic_if(!isMemory(op), "mem() requires a memory opcode");
    const uint32_t lanes = __builtin_popcount(curMask_);
    panic_if(addrs.size() != lanes,
             "address count %zu does not match %u active lanes", addrs.size(),
             lanes);
    TraceInstr in;
    in.opcode = op;
    in.dst = isStore(op) ? kNoReg : dst;
    in.srcs = {addr_src, isStore(op) ? dst : kNoReg, kNoReg};
    in.activeMask = curMask_;
    in.addrs = std::move(addrs);
    in.accessBytes = bytes;
    in.dataClass = cls;
    trace_.instrs.push_back(std::move(in));
    return *this;
}

TraceBuilder &
TraceBuilder::memStrided(Opcode op, uint8_t dst, Addr base, uint32_t stride,
                         uint8_t bytes, DataClass cls)
{
    const uint32_t lanes = __builtin_popcount(curMask_);
    std::vector<Addr> addrs;
    addrs.reserve(lanes);
    for (uint32_t i = 0; i < lanes; ++i) {
        addrs.push_back(base + static_cast<Addr>(i) * stride);
    }
    return mem(op, dst, std::move(addrs), bytes, cls);
}

TraceBuilder &
TraceBuilder::memUniform(Opcode op, uint8_t dst, Addr addr, uint8_t bytes,
                         DataClass cls)
{
    const uint32_t lanes = __builtin_popcount(curMask_);
    return mem(op, dst, std::vector<Addr>(lanes, addr), bytes, cls);
}

TraceBuilder &
TraceBuilder::bar()
{
    TraceInstr in;
    in.opcode = Opcode::BAR;
    in.activeMask = fullMask_;
    trace_.instrs.push_back(std::move(in));
    return *this;
}

TraceBuilder &
TraceBuilder::exit()
{
    TraceInstr in;
    in.opcode = Opcode::EXIT;
    in.activeMask = fullMask_;
    trace_.instrs.push_back(std::move(in));
    return *this;
}

WarpTrace
TraceBuilder::take()
{
    WarpTrace out = std::move(trace_);
    trace_ = WarpTrace{};
    trace_.threadCount = out.threadCount;
    curMask_ = fullMask_;
    return out;
}

} // namespace crisp
