#include "isa/trace.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace crisp
{

uint64_t
CtaTrace::totalInstrs() const
{
    uint64_t total = 0;
    for (const auto &w : warps) {
        total += w.instrs.size();
    }
    return total;
}

CtaTrace
VectorCtaSource::generate(uint32_t cta_index) const
{
    panic_if(cta_index >= ctas_.size(), "CTA index %u out of range (%zu)",
             cta_index, ctas_.size());
    return ctas_[cta_index];
}

namespace
{

void
coalesce(const TraceInstr &instr, uint32_t granule, std::vector<Addr> &out)
{
    out.clear();
    if (instr.addrs.empty()) {
        return;
    }
    const uint32_t bytes = std::max<uint32_t>(instr.accessBytes, 1);
    out.reserve(instr.addrs.size());
    // Most warps touch lines in ascending lane order: drop a repeat of
    // the last line kept, and sort only when a line arrives out of order.
    bool ascending = true;
    for (Addr a : instr.addrs) {
        const Addr first = a / granule;
        const Addr last = (a + bytes - 1) / granule;
        for (Addr blk = first; blk <= last; ++blk) {
            const Addr line = blk * granule;
            if (!out.empty()) {
                if (line == out.back()) {
                    continue;
                }
                ascending = ascending && line > out.back();
            }
            out.push_back(line);
        }
    }
    if (!ascending) {
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }
}

} // namespace

std::vector<Addr>
coalesceToLines(const TraceInstr &instr)
{
    std::vector<Addr> out;
    coalesce(instr, kLineBytes, out);
    return out;
}

void
coalesceToLines(const TraceInstr &instr, std::vector<Addr> &out)
{
    coalesce(instr, kLineBytes, out);
}

std::vector<Addr>
coalesceToSectors(const TraceInstr &instr)
{
    std::vector<Addr> out;
    coalesce(instr, kSectorBytes, out);
    return out;
}

} // namespace crisp
