#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "integrity/report.hpp"
#include "traceio/cache.hpp"
#include "traceio/format.hpp"
#include "traceio/reader.hpp"
#include "traceio/replay.hpp"
#include "traceio/writer.hpp"
#include "workloads/cached.hpp"
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

// --- Trace cache -----------------------------------------------------------

class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = tempPath("trace-cache");
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(TraceCacheTest, MissPopulatesThenHitReplaysIdentically)
{
    traceio::TraceCache cache(dir_);
    ASSERT_TRUE(cache.enabled());

    AddressSpace heap_a(0x8000'0000ull);
    const std::vector<KernelInfo> built =
        buildNnCached(cache, heap_a, /*layers=*/2);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    AddressSpace heap_b(0x8000'0000ull);
    const std::vector<KernelInfo> replayed =
        buildNnCached(cache, heap_b, /*layers=*/2);
    EXPECT_EQ(cache.stats().hits, 1u);

    // The replayed workload is the built one, bit for bit, and the heap
    // advanced exactly as live generation advanced it.
    EXPECT_EQ(heap_a.allocatedEnd(), heap_b.allocatedEnd());
    ASSERT_EQ(built.size(), replayed.size());
    for (size_t k = 0; k < built.size(); ++k) {
        ASSERT_EQ(built[k].numCtas(), replayed[k].numCtas());
        EXPECT_EQ(built[k].name, replayed[k].name);
        for (uint32_t c = 0; c < built[k].numCtas(); ++c) {
            EXPECT_EQ(built[k].source->generate(c),
                      replayed[k].source->generate(c));
        }
    }
}

TEST_F(TraceCacheTest, DifferentParametersMissSeparately)
{
    traceio::TraceCache cache(dir_);
    AddressSpace heap(0x8000'0000ull);
    buildNnCached(cache, heap, 2);
    AddressSpace heap2(0x8000'0000ull);
    buildNnCached(cache, heap2, 3); // different layer count: its own key
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(TraceCacheTest, CorruptCacheEntryIsRejectedAndRebuilt)
{
    traceio::TraceCache cache(dir_);
    AddressSpace heap(0x8000'0000ull);
    buildHoloCached(cache, heap, 2);
    EXPECT_EQ(cache.stats().misses, 1u);

    const std::string path = cache.pathForKey(
        computeCacheKey("holo", "points=2", 0x8000'0000ull));
    ASSERT_TRUE(std::filesystem::exists(path));
    std::vector<uint8_t> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0xff;
    writeAll(path, bytes);

    AddressSpace heap2(0x8000'0000ull);
    bool hit = true;
    cache.loadOrBuild(computeCacheKey("holo", "points=2", 0x8000'0000ull),
                      heap2,
                      [](AddressSpace &h) { return buildHolo(h, 2); },
                      &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().rejects, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);

    // The rebuild replaced the damaged file with a valid one.
    traceio::TraceReader reader(path);
    EXPECT_TRUE(reader.valid()) << reader.error().render();
}

TEST_F(TraceCacheTest, DisabledCacheBuildsLive)
{
    traceio::TraceCache cache;
    EXPECT_FALSE(cache.enabled());
    AddressSpace heap(0x8000'0000ull);
    bool hit = true;
    const std::vector<KernelInfo> kernels = cache.loadOrBuild(
        "whatever", heap, [](AddressSpace &h) { return buildHolo(h, 2); },
        &hit);
    EXPECT_FALSE(hit);
    EXPECT_FALSE(kernels.empty());
    EXPECT_EQ(cache.stats().misses, 0u); // disabled: not even a miss
}

TEST_F(TraceCacheTest, ConcurrentPopulateOfOneKeyIsSafe)
{
    // Two threads race loadOrBuild on the same key, repeatedly, on a
    // fresh entry each round. Whoever loses the tmp-file rename race
    // must treat it as a miss-that-populated (counted in
    // populateRaces), never as a failure, and the surviving entry must
    // always be readable.
    constexpr int kRounds = 6;
    traceio::TraceCache cache(dir_);
    ASSERT_TRUE(cache.enabled());

    for (int round = 0; round < kRounds; ++round) {
        const std::string key = computeCacheKey(
            "race", "round=" + std::to_string(round), 0x8000'0000ull);
        std::atomic<int> ready{0};
        std::atomic<bool> go{false};
        auto populate = [&] {
            ready.fetch_add(1);
            while (!go.load()) {
            }
            AddressSpace heap(0x8000'0000ull);
            const std::vector<KernelInfo> kernels = cache.loadOrBuild(
                key, heap,
                [](AddressSpace &h) { return buildHolo(h, 2); });
            EXPECT_FALSE(kernels.empty());
        };
        std::thread a(populate), b(populate);
        while (ready.load() != 2) {
        }
        go.store(true);
        a.join();
        b.join();

        // The entry exists and is valid regardless of who won.
        traceio::TraceReader reader(cache.pathForKey(key));
        EXPECT_TRUE(reader.valid()) << reader.error().render();
    }

    const auto &s = cache.stats();
    // A lost rename race is a populate race, never a store failure,
    // and every loadOrBuild call is accounted as a hit or a miss.
    EXPECT_EQ(s.storeFailures.load(), 0u);
    EXPECT_EQ(s.rejects.load(), 0u);
    EXPECT_EQ(s.hits.load() + s.misses.load(),
              uint64_t(2 * kRounds));
    EXPECT_GE(s.misses.load(), uint64_t(kRounds));
    EXPECT_LE(s.populateRaces.load(), s.misses.load());
}

} // namespace
} // namespace crisp
