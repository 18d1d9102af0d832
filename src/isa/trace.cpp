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

template <uint32_t Granule>
void
coalesce(const TraceInstr &instr, std::vector<Addr> &out)
{
    static_assert((Granule & (Granule - 1)) == 0, "granules are 2^n bytes");
    out.clear();
    if (instr.addrs.empty()) {
        return;
    }
    const uint32_t bytes = std::max<uint32_t>(instr.accessBytes, 1);
    out.reserve(instr.addrs.size());
    // The granules come out sorted and distinct. Most warps touch them in
    // ascending lane order, so a granule lands at the back after one
    // compare; one that arrives out of order walks back to its place (an
    // instruction touches few granules).
    for (Addr a : instr.addrs) {
        const Addr first = a / Granule;
        const Addr last = (a + bytes - 1) / Granule;
        for (Addr blk = first; blk <= last; ++blk) {
            const Addr line = blk * Granule;
            size_t pos = out.size();
            while (pos > 0 && out[pos - 1] > line) {
                --pos;
            }
            if (pos > 0 && out[pos - 1] == line) {
                continue;
            }
            out.insert(out.begin() + static_cast<ptrdiff_t>(pos), line);
        }
    }
}

} // namespace

std::vector<Addr>
coalesceToLines(const TraceInstr &instr)
{
    std::vector<Addr> out;
    coalesce<kLineBytes>(instr, out);
    return out;
}

void
coalesceToLines(const TraceInstr &instr, std::vector<Addr> &out)
{
    coalesce<kLineBytes>(instr, out);
}

std::vector<Addr>
coalesceToSectors(const TraceInstr &instr)
{
    std::vector<Addr> out;
    coalesce<kSectorBytes>(instr, out);
    return out;
}

} // namespace crisp
