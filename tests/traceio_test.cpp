#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "integrity/report.hpp"
#include "traceio/format.hpp"
#include "traceio/reader.hpp"
#include "traceio/replay.hpp"
#include "traceio/writer.hpp"
#include "workloads/compute.hpp"

namespace crisp
{
namespace
{

using traceio::TraceError;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- Random trace construction (the property tests' generator) ------------

TraceInstr
randomInstr(Rng &rng)
{
    TraceInstr in;
    in.opcode = static_cast<Opcode>(
        rng.nextBelow(static_cast<uint64_t>(Opcode::NumOpcodes)));
    in.dst = rng.nextBelow(4) == 0 ? kNoReg
                                   : static_cast<uint8_t>(rng.nextBelow(64));
    for (auto &s : in.srcs) {
        s = rng.nextBelow(3) == 0 ? kNoReg
                                  : static_cast<uint8_t>(rng.nextBelow(64));
    }
    // Sparse, full, and single-lane masks all appear.
    switch (rng.nextBelow(3)) {
      case 0: in.activeMask = 0xffffffffu; break;
      case 1: in.activeMask = static_cast<uint32_t>(rng.next()) | 1u; break;
      default: in.activeMask = 1u << rng.nextBelow(32); break;
    }
    if (isMemory(in.opcode)) {
        in.accessBytes = static_cast<uint8_t>(1u << rng.nextBelow(5));
        in.dataClass = static_cast<DataClass>(rng.range(
            1, static_cast<int64_t>(DataClass::NumClasses) - 1));
        const uint32_t lanes = in.activeLanes();
        const Addr base = rng.next() & 0xffff'ffff'ffull;
        for (uint32_t l = 0; l < lanes; ++l) {
            switch (rng.nextBelow(3)) {
              case 0: // unit stride (the delta-coding fast path)
                in.addrs.push_back(base + 4ull * l);
                break;
              case 1: // gather: arbitrary addresses, including descending
                in.addrs.push_back(rng.next() & 0xffff'ffff'ffull);
                break;
              default: // broadcast
                in.addrs.push_back(base);
                break;
            }
        }
    }
    return in;
}

CtaTrace
randomCta(Rng &rng)
{
    CtaTrace cta;
    const uint64_t warps = 1 + rng.nextBelow(4);
    for (uint64_t w = 0; w < warps; ++w) {
        WarpTrace warp;
        warp.threadCount = 1 + static_cast<uint32_t>(rng.nextBelow(32));
        const uint64_t instrs = rng.nextBelow(40);
        for (uint64_t i = 0; i < instrs; ++i) {
            warp.instrs.push_back(randomInstr(rng));
        }
        cta.warps.push_back(std::move(warp));
    }
    return cta;
}

KernelInfo
randomKernel(Rng &rng, const std::string &name)
{
    KernelInfo info;
    info.name = name;
    info.grid = {1 + static_cast<uint32_t>(rng.nextBelow(5)), 1, 1};
    info.cta = {32 * (1 + static_cast<uint32_t>(rng.nextBelow(4))), 1, 1};
    info.regsPerThread = 16 + static_cast<uint32_t>(rng.nextBelow(48));
    info.smemPerCta = static_cast<uint32_t>(rng.nextBelow(3)) * 4096;
    info.drawcall = static_cast<uint32_t>(rng.nextBelow(4));
    std::vector<CtaTrace> ctas;
    for (uint32_t c = 0; c < info.numCtas(); ++c) {
        ctas.push_back(randomCta(rng));
    }
    info.source = std::make_shared<VectorCtaSource>(std::move(ctas));
    return info;
}

/** Pack kernels to @p path; fail the test on writer errors. */
void
packOrDie(const std::string &path, const std::vector<KernelInfo> &kernels,
          const std::vector<int> &deps = {})
{
    TraceError err;
    ASSERT_TRUE(traceio::writeTrace(path, "test-fingerprint", kernels, deps,
                                    /*heap_bytes_used=*/0, err))
        << err.render();
}

// --- Round-trip properties -------------------------------------------------

TEST(TraceRoundTrip, RandomKernelsSurviveWriteReadBitExactly)
{
    Rng rng(0xc0ffee);
    const std::string path = tempPath("roundtrip.crtr");
    for (int iter = 0; iter < 8; ++iter) {
        std::vector<KernelInfo> kernels;
        const uint64_t n = 1 + rng.nextBelow(4);
        for (uint64_t k = 0; k < n; ++k) {
            // Appending, not `"k" + std::to_string(k)`: GCC 12 inlines
            // that operator+ into a false -Wrestrict warning.
            std::string name = "k";
            name += std::to_string(k);
            kernels.push_back(randomKernel(rng, name));
        }
        packOrDie(path, kernels);

        traceio::LoadedTrace loaded;
        TraceError err;
        ASSERT_TRUE(traceio::loadTrace(path, loaded, err)) << err.render();
        ASSERT_EQ(loaded.kernels.size(), kernels.size());
        for (size_t k = 0; k < kernels.size(); ++k) {
            const KernelInfo &a = kernels[k];
            const KernelInfo &b = loaded.kernels[k];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.grid, b.grid);
            EXPECT_EQ(a.cta, b.cta);
            EXPECT_EQ(a.regsPerThread, b.regsPerThread);
            EXPECT_EQ(a.smemPerCta, b.smemPerCta);
            EXPECT_EQ(a.drawcall, b.drawcall);
            for (uint32_t c = 0; c < a.numCtas(); ++c) {
                EXPECT_EQ(a.source->generate(c), b.source->generate(c))
                    << "kernel " << k << " CTA " << c << " iter " << iter;
            }
        }
    }
}

TEST(TraceRoundTrip, DependencyGraphSurvives)
{
    Rng rng(42);
    std::vector<KernelInfo> kernels;
    for (int k = 0; k < 4; ++k) {
        kernels.push_back(randomKernel(rng, "dep" + std::to_string(k)));
    }
    const std::vector<int> deps = {-1, 0, -1, 2};
    const std::string path = tempPath("deps.crtr");
    packOrDie(path, kernels, deps);

    traceio::LoadedTrace loaded;
    TraceError err;
    ASSERT_TRUE(traceio::loadTrace(path, loaded, err)) << err.render();
    EXPECT_EQ(loaded.dependsOn, deps);
    EXPECT_EQ(loaded.fingerprint, "test-fingerprint");
}

TEST(TraceRoundTrip, ForwardDependencyIsRejectedAtWrite)
{
    Rng rng(7);
    std::vector<KernelInfo> kernels = {randomKernel(rng, "a"),
                                       randomKernel(rng, "b")};
    TraceError err;
    EXPECT_FALSE(traceio::writeTrace(tempPath("fwd.crtr"), "fp", kernels,
                                     {1, -1}, 0, err));
    EXPECT_EQ(err.kind, TraceError::Kind::Schema);
}

// --- Corruption is diagnosed, never UB ------------------------------------

class TraceCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(0xbadf00d);
        path_ = tempPath("corruption.crtr");
        packOrDie(path_, {randomKernel(rng, "victim")});
        bytes_ = readAll(path_);
        ASSERT_GT(bytes_.size(), 64u);
    }

    std::string path_;
    std::vector<uint8_t> bytes_;
};

TEST_F(TraceCorruption, TruncationAtEveryRegionIsDiagnosed)
{
    // Cut inside the header, inside a chunk prelude, inside a payload,
    // and just before the End chunk: all must diagnose, none may crash.
    for (const size_t keep :
         {size_t(3), size_t(6), size_t(12), bytes_.size() / 2,
          bytes_.size() - 1}) {
        writeAll(path_, {bytes_.begin(), bytes_.begin() + keep});
        traceio::TraceReader reader(path_);
        ASSERT_FALSE(reader.valid()) << "kept " << keep << " bytes";
        EXPECT_TRUE(reader.error().kind == TraceError::Kind::Truncated ||
                    reader.error().kind == TraceError::Kind::Corrupt)
            << reader.error().render();
        EXPECT_FALSE(reader.error().detail.empty());
    }
}

TEST_F(TraceCorruption, FlippedPayloadByteFailsTheChunkCrc)
{
    // Flip one byte inside the Meta chunk's payload (which starts at
    // offset 8 + prelude): the chunk CRC must catch it.
    std::vector<uint8_t> flipped = bytes_;
    flipped[8 + traceio::kChunkPrelude + 2] ^= 0x40;
    writeAll(path_, flipped);
    traceio::TraceReader reader(path_);
    ASSERT_FALSE(reader.valid());
    EXPECT_EQ(reader.error().kind, TraceError::Kind::Corrupt);

    const integrity::InvariantViolation v = reader.error().violation();
    EXPECT_EQ(v.check, "trace-io-corrupt");
    EXPECT_NE(v.detail.find("offset"), std::string::npos);
}

TEST_F(TraceCorruption, VersionMismatchIsDiagnosed)
{
    std::vector<uint8_t> skewed = bytes_;
    skewed[4] = traceio::kFormatVersion + 1;
    writeAll(path_, skewed);
    traceio::TraceReader reader(path_);
    ASSERT_FALSE(reader.valid());
    EXPECT_EQ(reader.error().kind, TraceError::Kind::Version);
    EXPECT_NE(reader.error().detail.find("version"), std::string::npos);
}

TEST_F(TraceCorruption, WrongMagicIsDiagnosed)
{
    std::vector<uint8_t> nonsense = bytes_;
    nonsense[0] = 'X';
    writeAll(path_, nonsense);
    traceio::TraceReader reader(path_);
    ASSERT_FALSE(reader.valid());
    EXPECT_EQ(reader.error().kind, TraceError::Kind::BadMagic);
}

TEST_F(TraceCorruption, MissingFileIsDiagnosed)
{
    traceio::TraceReader reader(tempPath("never-written.crtr"));
    ASSERT_FALSE(reader.valid());
    EXPECT_EQ(reader.error().kind, TraceError::Kind::Io);
}

TEST_F(TraceCorruption, MidReplayCorruptionIsFatalNotUb)
{
    traceio::LoadedTrace loaded;
    TraceError err;
    ASSERT_TRUE(traceio::loadTrace(path_, loaded, err)) << err.render();
    // Corrupt the file *after* the reader validated it; the lazy CTA
    // source re-verifies the CRC on every read and must fatal() with a
    // diagnosis instead of decoding garbage. Flip a byte inside kernel
    // 0 CTA 0's payload specifically — that is the chunk generate(0)
    // will re-read.
    traceio::TraceReader reader(path_);
    ASSERT_TRUE(reader.valid());
    const uint64_t cta0 = reader.kernel(0).ctaOffsets.at(0);
    std::vector<uint8_t> flipped = bytes_;
    flipped.at(cta0 + traceio::kChunkPrelude + 1) ^= 0x01;
    writeAll(path_, flipped);
    EXPECT_EXIT(loaded.kernels[0].source->generate(0),
                ::testing::ExitedWithCode(1), "trace replay failed");
}

// --- Replay equivalence ----------------------------------------------------

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.name = "traceio-test";
    cfg.numSms = 4;
    cfg.l2.numBanks = 2;
    cfg.finalize();
    return cfg;
}

std::vector<KernelInfo>
smallWorkload(AddressSpace &heap)
{
    ComputeKernelDesc d;
    d.name = "replay.kernel";
    d.ctas = 8;
    d.threadsPerCta = 128;
    d.iterations = 2;
    d.fp32Ops = 6;
    d.intOps = 2;
    d.loads = {{MemPatternKind::Streaming, heap.alloc(1 << 16), 1 << 16, 4,
                2, 128}};
    d.store = {MemPatternKind::Streaming, heap.alloc(1 << 16), 1 << 16, 4,
               1, 128};
    d.hasStore = true;
    return {buildComputeKernel(d)};
}

void
expectStreamStatsIdentical(const StreamStats &a, const StreamStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.warpsLaunched, b.warpsLaunched);
    EXPECT_EQ(a.ctasLaunched, b.ctasLaunched);
    EXPECT_EQ(a.kernelsCompleted, b.kernelsCompleted);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1MshrMerges, b.l1MshrMerges);
    EXPECT_EQ(a.l1TexAccesses, b.l1TexAccesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2MshrMerges, b.l2MshrMerges);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.smemAccesses, b.smemAccesses);
    EXPECT_EQ(a.smemBankConflicts, b.smemBankConflicts);
    EXPECT_EQ(a.firstCycle, b.firstCycle);
    EXPECT_EQ(a.lastCycle, b.lastCycle);
}

TEST(TraceReplay, StreamStatsAreByteIdenticalToLiveGeneration)
{
    AddressSpace heap(0x8000'0000ull);
    const Addr heap_base = heap.allocatedEnd();
    const std::vector<KernelInfo> kernels = smallWorkload(heap);

    // Live run.
    Gpu live(smallGpu());
    const StreamId ls = live.createStream("compute");
    for (const KernelInfo &k : kernels) {
        live.enqueueKernel(ls, k);
    }
    const auto live_run = live.run(100'000'000ull);
    ASSERT_TRUE(live_run.completed);

    // Pack, load, replay.
    const std::string path = tempPath("replay.crtr");
    TraceError err;
    ASSERT_TRUE(traceio::writeTrace(path, "replay-test", kernels, {},
                                    heap.allocatedEnd() - heap_base, err))
        << err.render();
    traceio::LoadedTrace loaded;
    ASSERT_TRUE(traceio::loadTrace(path, loaded, err)) << err.render();
    EXPECT_EQ(loaded.heapBytesUsed, heap.allocatedEnd() - heap_base);

    Gpu replay(smallGpu());
    const StreamId rs = replay.createStream("compute");
    traceio::submitLoaded(replay, rs, loaded);
    const auto replay_run = replay.run(100'000'000ull);
    ASSERT_TRUE(replay_run.completed);

    EXPECT_EQ(live_run.cycles, replay_run.cycles);
    expectStreamStatsIdentical(live.stats().stream(ls),
                               replay.stats().stream(rs));
}

// --- Concurrent reads ------------------------------------------------------

TEST(TraceReaderTest, ConcurrentReadCtaMatchesSerial)
{
    // readCta is documented thread-safe: calls share one stream under
    // ctaMutex_. Two threads decode every CTA of one packed trace
    // through one shared reader, in opposite orders so their reads
    // interleave, and every result must equal the serial decode.
    Rng rng(0x5eed);
    std::vector<KernelInfo> kernels;
    for (int k = 0; k < 6; ++k) {
        std::string name = "k";
        name += std::to_string(k);
        kernels.push_back(randomKernel(rng, name));
    }
    const std::string path = tempPath("concurrent.crtr");
    packOrDie(path, kernels);

    const traceio::TraceReader reader(path);
    ASSERT_TRUE(reader.valid()) << reader.error().render();
    struct Ref
    {
        size_t kernel;
        uint32_t cta;
    };
    std::vector<Ref> refs;
    std::vector<CtaTrace> serial;
    for (size_t k = 0; k < reader.kernelCount(); ++k) {
        for (uint32_t c = 0; c < reader.kernel(k).ctaOffsets.size(); ++c) {
            CtaTrace cta;
            TraceError err;
            ASSERT_TRUE(reader.readCta(k, c, cta, err)) << err.render();
            refs.push_back({k, c});
            serial.push_back(std::move(cta));
        }
    }
    ASSERT_GT(refs.size(), 1u);

    constexpr int kPasses = 16;
    std::atomic<int> ready{0};
    auto decodeAll = [&](bool reverse, std::vector<std::string> &failures) {
        ready.fetch_add(1);
        while (ready.load() != 2) {
        }
        for (int pass = 0; pass < kPasses; ++pass) {
            for (size_t n = 0; n < refs.size(); ++n) {
                const size_t i = reverse ? refs.size() - 1 - n : n;
                TraceError err;
                CtaTrace cta;
                if (!reader.readCta(refs[i].kernel, refs[i].cta, cta, err)) {
                    failures.push_back(err.render());
                } else if (cta != serial[i]) {
                    std::string what = "kernel ";
                    what += std::to_string(refs[i].kernel);
                    what += " CTA ";
                    what += std::to_string(refs[i].cta);
                    what += " differs from the serial decode";
                    failures.push_back(std::move(what));
                }
            }
        }
    };
    std::vector<std::string> forward_failures, backward_failures;
    std::thread a([&] { decodeAll(false, forward_failures); });
    std::thread b([&] { decodeAll(true, backward_failures); });
    a.join();
    b.join();

    EXPECT_TRUE(forward_failures.empty()) << forward_failures.front();
    EXPECT_TRUE(backward_failures.empty()) << backward_failures.front();
}

} // namespace
} // namespace crisp
