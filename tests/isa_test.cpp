#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "isa/opcode.hpp"
#include "isa/trace.hpp"
#include "isa/trace_builder.hpp"

namespace crisp
{
namespace
{

TEST(Opcode, Classes)
{
    EXPECT_EQ(opcodeClass(Opcode::FFMA), OpClass::FP32);
    EXPECT_EQ(opcodeClass(Opcode::IMAD), OpClass::INT);
    EXPECT_EQ(opcodeClass(Opcode::MUFU_SIN), OpClass::SFU);
    EXPECT_EQ(opcodeClass(Opcode::HMMA), OpClass::Tensor);
    EXPECT_EQ(opcodeClass(Opcode::LDG), OpClass::MemGlobal);
    EXPECT_EQ(opcodeClass(Opcode::STS), OpClass::MemShared);
    EXPECT_EQ(opcodeClass(Opcode::TEX), OpClass::MemTexture);
    EXPECT_EQ(opcodeClass(Opcode::LDC), OpClass::MemConst);
    EXPECT_EQ(opcodeClass(Opcode::BAR), OpClass::Barrier);
    EXPECT_EQ(opcodeClass(Opcode::EXIT), OpClass::Control);
}

TEST(Opcode, MemoryPredicates)
{
    EXPECT_TRUE(isMemory(Opcode::LDG));
    EXPECT_TRUE(isMemory(Opcode::TEX));
    EXPECT_FALSE(isMemory(Opcode::FFMA));
    EXPECT_TRUE(isStore(Opcode::STG));
    EXPECT_TRUE(isStore(Opcode::STS));
    EXPECT_FALSE(isStore(Opcode::LDG));
}

TEST(Opcode, NamesAreStable)
{
    EXPECT_STREQ(opcodeName(Opcode::FFMA), "FFMA");
    EXPECT_STREQ(opcodeName(Opcode::TEX), "TEX");
}

TEST(Coalesce, AllLanesSameLineMergeToOne)
{
    TraceInstr in;
    in.opcode = Opcode::LDG;
    in.accessBytes = 4;
    in.addrs.assign(32, 0x1000);
    const auto lines = coalesceToLines(in);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u & ~(kLineBytes - 1));
}

TEST(Coalesce, UnitStrideFourBytesIsOneLinePerThirtyTwoLanes)
{
    TraceInstr in;
    in.opcode = Opcode::LDG;
    in.accessBytes = 4;
    for (uint32_t l = 0; l < 32; ++l) {
        in.addrs.push_back(0x2000 + 4ull * l);
    }
    EXPECT_EQ(coalesceToLines(in).size(), 1u);
    EXPECT_EQ(coalesceToSectors(in).size(), 4u);
}

TEST(Coalesce, StridedAccessesSpreadLines)
{
    TraceInstr in;
    in.opcode = Opcode::LDG;
    in.accessBytes = 4;
    for (uint32_t l = 0; l < 32; ++l) {
        in.addrs.push_back(0x4000 + static_cast<Addr>(l) * kLineBytes);
    }
    EXPECT_EQ(coalesceToLines(in).size(), 32u);
}

TEST(Coalesce, AccessStraddlingLineTouchesBoth)
{
    TraceInstr in;
    in.opcode = Opcode::LDG;
    in.accessBytes = 16;
    in.addrs.push_back(kLineBytes - 8);  // 8 bytes in line 0, 8 in line 1
    const auto lines = coalesceToLines(in);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], static_cast<Addr>(kLineBytes));
}

TEST(Coalesce, ResultsSortedAndUnique)
{
    TraceInstr in;
    in.opcode = Opcode::LDG;
    in.accessBytes = 4;
    in.addrs = {0x5000, 0x1000, 0x5000, 0x3000};
    const auto lines = coalesceToLines(in);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_LT(lines[0], lines[1]);
    EXPECT_LT(lines[1], lines[2]);
}

/** The original coalescer: every touched granule, then sort + unique. */
std::vector<Addr>
referenceCoalesce(const TraceInstr &in, uint32_t granule)
{
    std::vector<Addr> out;
    const uint32_t bytes = std::max<uint32_t>(in.accessBytes, 1);
    for (Addr a : in.addrs) {
        for (Addr blk = a / granule; blk <= (a + bytes - 1) / granule;
             ++blk) {
            out.push_back(blk * granule);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

TEST(Coalesce, MatchesSortUniqueReferenceOnRandomLanes)
{
    // Ascending lanes (the common case, which skips the sort), repeated
    // addresses, descending and shuffled lanes, and accesses that
    // straddle a line or sector boundary.
    constexpr uint32_t kAccessBytes[] = {0, 1, 4, 8, 16, 200};
    Rng rng(0xc0a1);
    std::vector<Addr> lines;
    for (int round = 0; round < 4000; ++round) {
        TraceInstr in;
        in.opcode = Opcode::LDG;
        in.accessBytes = kAccessBytes[rng.nextBelow(6)];
        const Addr base = rng.nextBelow(1 << 20);
        const uint64_t lanes = rng.nextBelow(33);
        for (uint64_t l = 0; l < lanes; ++l) {
            switch (rng.nextBelow(4)) {
            case 0: // unit stride
                in.addrs.push_back(base + 4 * l);
                break;
            case 1: // line stride
                in.addrs.push_back(base + l * kLineBytes);
                break;
            case 2: // repeat the previous lane
                in.addrs.push_back(in.addrs.empty() ? base
                                                    : in.addrs.back());
                break;
            default: // anywhere nearby
                in.addrs.push_back(base + rng.nextBelow(8 * kLineBytes));
                break;
            }
        }
        switch (rng.nextBelow(3)) {
        case 0:
            std::reverse(in.addrs.begin(), in.addrs.end());
            break;
        case 1:
            for (size_t i = in.addrs.size(); i > 1; --i) {
                std::swap(in.addrs[i - 1], in.addrs[rng.nextBelow(i)]);
            }
            break;
        default:
            break;
        }
        ASSERT_EQ(coalesceToLines(in), referenceCoalesce(in, kLineBytes));
        ASSERT_EQ(coalesceToSectors(in),
                  referenceCoalesce(in, kSectorBytes));
        // The out-param overload reuses a dirty buffer.
        lines.assign(3, 0xdead);
        coalesceToLines(in, lines);
        ASSERT_EQ(lines, referenceCoalesce(in, kLineBytes));
    }
}

TEST(TraceBuilderTest, AluAndMasks)
{
    TraceBuilder tb(32);
    tb.alu(Opcode::FFMA, 4, 1, 2);
    tb.mask(0x0000ffff).alu(Opcode::IADD, 5, 4);
    WarpTrace w = tb.take();
    ASSERT_EQ(w.instrs.size(), 2u);
    EXPECT_EQ(w.instrs[0].activeMask, 0xffffffffu);
    EXPECT_EQ(w.instrs[1].activeMask, 0x0000ffffu);
    EXPECT_EQ(w.instrs[0].dst, 4);
    EXPECT_EQ(w.instrs[0].srcs[0], 1);
}

TEST(TraceBuilderTest, PartialWarpMask)
{
    TraceBuilder tb(5);
    tb.alu(Opcode::MOV, 1);
    WarpTrace w = tb.take();
    EXPECT_EQ(w.threadCount, 5u);
    EXPECT_EQ(w.instrs[0].activeMask, 0x1fu);
    EXPECT_EQ(w.instrs[0].activeLanes(), 5u);
}

TEST(TraceBuilderTest, MemStridedGeneratesPerLaneAddresses)
{
    TraceBuilder tb(8);
    tb.memStrided(Opcode::LDG, 2, 0x100, 8, 4, DataClass::Compute);
    WarpTrace w = tb.take();
    ASSERT_EQ(w.instrs.size(), 1u);
    ASSERT_EQ(w.instrs[0].addrs.size(), 8u);
    EXPECT_EQ(w.instrs[0].addrs[0], 0x100u);
    EXPECT_EQ(w.instrs[0].addrs[7], 0x100u + 7 * 8);
    EXPECT_EQ(w.instrs[0].dataClass, DataClass::Compute);
}

TEST(TraceBuilderTest, StoreHasNoDest)
{
    TraceBuilder tb(4);
    tb.memUniform(Opcode::STG, 3, 0x40, 4, DataClass::Pipeline);
    WarpTrace w = tb.take();
    EXPECT_FALSE(w.instrs[0].hasDst());
    // Stored register appears as a source.
    EXPECT_EQ(w.instrs[0].srcs[1], 3);
}

TEST(TraceBuilderTest, ChainCreatesSerialDependence)
{
    TraceBuilder tb(32);
    tb.aluChain(Opcode::FFMA, 6, 2, 3);
    WarpTrace w = tb.take();
    ASSERT_EQ(w.instrs.size(), 3u);
    for (const auto &in : w.instrs) {
        EXPECT_EQ(in.dst, 6);
        EXPECT_EQ(in.srcs[0], 6);  // reads its own previous result
    }
}

TEST(TraceBuilderTest, TakeResets)
{
    TraceBuilder tb(32);
    tb.alu(Opcode::MOV, 1).exit();
    EXPECT_EQ(tb.take().instrs.size(), 2u);
    EXPECT_EQ(tb.size(), 0u);
    tb.alu(Opcode::MOV, 1);
    EXPECT_EQ(tb.take().instrs.size(), 1u);
}

TEST(KernelInfoTest, DerivedCounts)
{
    KernelInfo k;
    k.grid = {4, 2, 1};
    k.cta = {96, 1, 1};
    EXPECT_EQ(k.numCtas(), 8u);
    EXPECT_EQ(k.threadsPerCta(), 96u);
    EXPECT_EQ(k.warpsPerCta(), 3u);
    k.cta = {97, 1, 1};
    EXPECT_EQ(k.warpsPerCta(), 4u);
}

TEST(VectorCtaSourceTest, ReturnsStoredTraces)
{
    CtaTrace a;
    a.warps.emplace_back();
    a.warps.back().instrs.push_back(TraceInstr{});
    VectorCtaSource src({a, CtaTrace{}});
    EXPECT_EQ(src.generate(0).totalInstrs(), 1u);
    EXPECT_EQ(src.generate(1).totalInstrs(), 0u);
}

} // namespace
} // namespace crisp
