#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "graphics/pipeline.hpp"
#include "integrity/fault_injector.hpp"
#include "partition/warped_slicer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/sink.hpp"
#include "workloads/compute.hpp"
#include "workloads/scenes.hpp"
#include "workloads/submit.hpp"

namespace crisp
{
namespace
{

using telemetry::Event;
using telemetry::EventKind;
using telemetry::TelemetryConfig;
using telemetry::TelemetrySink;

GpuConfig
smallGpu()
{
    GpuConfig cfg;
    cfg.name = "small";
    cfg.numSms = 4;
    cfg.coreClockMhz = 1000.0;
    cfg.memoryBandwidthGBs = 128.0;
    cfg.l2.numBanks = 4;
    cfg.l2.bankGeometry = {128 * 1024, 8, kLineBytes};
    cfg.finalize();
    return cfg;
}

RenderSubmission
smallFrame(AddressSpace &heap)
{
    static std::vector<std::unique_ptr<Scene>> keep_alive;
    keep_alive.push_back(
        std::make_unique<Scene>(buildSceneByName("PT", heap)));
    PipelineConfig pc;
    pc.width = 160;
    pc.height = 90;
    RenderPipeline pipe(pc, heap);
    return pipe.submit(*keep_alive.back());
}

void
enqueueVio(Gpu &gpu, StreamId stream, AddressSpace &heap)
{
    for (const KernelInfo &k : buildVio(heap, 1, 160, 120)) {
        gpu.enqueueKernel(stream, k);
    }
}

Event
mkEvent(Cycle cycle, uint64_t payload)
{
    Event e;
    e.cycle = cycle;
    e.kind = EventKind::CtaDispatch;
    e.a = payload;
    return e;
}

// ---------------------------------------------------------------------
// Ring buffer semantics.
// ---------------------------------------------------------------------

TEST(TelemetryRingTest, KeepsNewestOnWraparound)
{
    TelemetryConfig tc;
    tc.eventCapacity = 8;
    TelemetrySink sink(tc);
    for (uint64_t i = 0; i < 20; ++i) {
        sink.emit(mkEvent(i, i));
    }
    EXPECT_EQ(sink.emitted(), 20u);
    EXPECT_EQ(sink.dropped(), 12u);
    const std::vector<Event> events = sink.events();
    ASSERT_EQ(events.size(), 8u);
    // Oldest-first linearization of the newest 8 records: 12..19.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].a, 12u + i);
    }
    // Per-kind counts survive the wraparound.
    EXPECT_EQ(sink.count(EventKind::CtaDispatch), 20u);
    EXPECT_EQ(sink.count(EventKind::Repartition), 0u);
}

TEST(TelemetryRingTest, LastEventsClampsToRetained)
{
    TelemetryConfig tc;
    tc.eventCapacity = 8;
    TelemetrySink sink(tc);
    for (uint64_t i = 0; i < 5; ++i) {
        sink.emit(mkEvent(i, i));
    }
    EXPECT_EQ(sink.dropped(), 0u);
    const std::vector<Event> last2 = sink.lastEvents(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_EQ(last2[0].a, 3u);
    EXPECT_EQ(last2[1].a, 4u);
    EXPECT_EQ(sink.lastEvents(64).size(), 5u);
}

// ---------------------------------------------------------------------
// Counter series: sampling cadence and columnar storage.
// ---------------------------------------------------------------------

// A run of C cycles sampled every N cycles yields exactly ceil(C/N) rows
// (first sample on cycle 1), the contract the bench CSVs rely on.
TEST(TelemetrySamplerTest, ExactCadence)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");
    enqueueVio(gpu, s, heap);

    TelemetryConfig tc;
    tc.sampleInterval = 7;
    TelemetrySink sink(tc);
    gpu.setTelemetry(&sink);
    const auto r = gpu.run(500'000'000ull);
    ASSERT_TRUE(r.completed);

    const auto &series = sink.series();
    const Cycle n = tc.sampleInterval;
    EXPECT_EQ(series.rows(), (r.cycles + n - 1) / n);
    ASSERT_FALSE(series.cycles().empty());
    EXPECT_EQ(series.cycles().front(), 1u);
    for (size_t i = 1; i < series.cycles().size(); ++i) {
        EXPECT_EQ(series.cycles()[i], series.cycles()[i - 1] + n);
    }
    // The standard columns exist and have one value per row.
    for (const char *col : {"occ.compute", "sm.activeWarps", "l2.hitRate",
                            "l2.comp.compute"}) {
        ASSERT_TRUE(series.hasColumn(col)) << col;
        EXPECT_EQ(series.values(col).size(), series.rows()) << col;
    }
}

TEST(TelemetrySamplerTest, LateColumnsAreBackfilled)
{
    telemetry::CounterSeries series;
    const uint32_t a = series.column("a");
    series.beginRow(10);
    series.set(a, 1.0);
    series.beginRow(20);
    const uint32_t b = series.column("b");
    series.set(b, 2.0);
    ASSERT_EQ(series.rows(), 2u);
    EXPECT_DOUBLE_EQ(series.values("b")[0], 0.0);
    EXPECT_DOUBLE_EQ(series.values("b")[1], 2.0);
    EXPECT_DOUBLE_EQ(series.values("a")[1], 0.0);
}

// ---------------------------------------------------------------------
// Event stream shape from a real run.
// ---------------------------------------------------------------------

TEST(TelemetryEventTest, FrameEmitsBalancedKernelAndDrawcallEvents)
{
    AddressSpace heap;
    Gpu gpu(smallGpu());
    const StreamId gfx = gpu.createStream("graphics");
    submitFrame(gpu, gfx, smallFrame(heap));

    TelemetrySink sink;
    gpu.setTelemetry(&sink);
    const auto r = gpu.run(500'000'000ull);
    ASSERT_TRUE(r.completed);

    EXPECT_GT(sink.count(EventKind::KernelLaunch), 0u);
    EXPECT_EQ(sink.count(EventKind::KernelLaunch),
              sink.count(EventKind::KernelComplete));
    EXPECT_GT(sink.count(EventKind::DrawcallBegin), 0u);
    EXPECT_EQ(sink.count(EventKind::DrawcallBegin),
              sink.count(EventKind::DrawcallEnd));
    EXPECT_GT(sink.count(EventKind::CtaDispatch), 0u);
    EXPECT_EQ(sink.count(EventKind::CtaDispatch),
              sink.count(EventKind::CtaRetire));
    // Every event carries the frame's stream or the machine pseudo-unit.
    for (const Event &e : sink.events()) {
        EXPECT_EQ(e.stream, gfx) << static_cast<int>(e.kind);
        EXPECT_FALSE(sink.describe(e).empty());
    }
}

// Two identical runs produce identical event streams — telemetry is a
// pure observer and the simulator is deterministic.
TEST(TelemetryEventTest, IdenticalRunsProduceIdenticalStreams)
{
    auto trace = [](TelemetrySink &sink) {
        AddressSpace heap(0x8000'0000ull);
        Gpu gpu(smallGpu());
        const StreamId s = gpu.createStream("compute");
        enqueueVio(gpu, s, heap);
        gpu.setTelemetry(&sink);
        const auto r = gpu.run(500'000'000ull);
        ASSERT_TRUE(r.completed);
    };
    TelemetryConfig tc;
    tc.sampleInterval = 50;
    TelemetrySink a(tc);
    TelemetrySink b(tc);
    trace(a);
    trace(b);
    ASSERT_EQ(a.emitted(), b.emitted());
    EXPECT_TRUE(a.events() == b.events());
    ASSERT_EQ(a.series().rows(), b.series().rows());
    for (const std::string &col : a.series().columnNames()) {
        EXPECT_TRUE(a.series().values(col) == b.series().values(col))
            << col;
    }
}

// Attaching a sink must not change simulated timing.
TEST(TelemetryEventTest, TracingDoesNotChangeSimulatedCycles)
{
    auto cycles = [](TelemetrySink *sink) {
        AddressSpace heap(0x8000'0000ull);
        Gpu gpu(smallGpu());
        const StreamId s = gpu.createStream("compute");
        enqueueVio(gpu, s, heap);
        if (sink != nullptr) {
            gpu.setTelemetry(sink);
        }
        const auto r = gpu.run(500'000'000ull);
        EXPECT_TRUE(r.completed);
        return r.cycles;
    };
    TelemetryConfig tc;
    tc.sampleInterval = 1;
    TelemetrySink sink(tc);
    EXPECT_EQ(cycles(nullptr), cycles(&sink));
}

// ---------------------------------------------------------------------
// Chrome trace export.
// ---------------------------------------------------------------------

// Structural well-formedness without a JSON parser: balanced delimiters
// outside strings, array framing, and the fields Perfetto requires.
void
expectWellFormedJsonArray(const std::string &json)
{
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '[' || c == '{') {
            ++depth;
        } else if (c == ']' || c == '}') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(ChromeTraceTest, ConcurrentRunExportsAllTracks)
{
    AddressSpace heap;
    Gpu gpu(smallGpu());
    const StreamId gfx = gpu.createStream("graphics");
    const StreamId cmp = gpu.createStream("compute");
    submitFrame(gpu, gfx, smallFrame(heap));
    AddressSpace cheap(0x8000'0000ull);
    enqueueVio(gpu, cmp, cheap);

    PartitionConfig part;
    part.policy = PartitionPolicy::FineGrained;
    part.priorityStream = gfx;
    gpu.setPartition(part);
    WarpedSlicerConfig wc;
    wc.streamA = gfx;
    wc.streamB = cmp;
    WarpedSlicer slicer(wc);
    gpu.addController(&slicer);

    TelemetrySink sink;
    gpu.setTelemetry(&sink);
    const auto r = gpu.run(500'000'000ull);
    ASSERT_TRUE(r.completed);

    const std::string json = telemetry::chromeTraceJson(sink);
    expectWellFormedJsonArray(json);
    // Duration events for kernels, metadata naming the processes, and
    // the machine track for repartition decisions.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("graphics"), std::string::npos);
    EXPECT_NE(json.find("compute"), std::string::npos);
    EXPECT_GT(sink.count(EventKind::Repartition), 0u);
    EXPECT_NE(json.find("repartition"), std::string::npos);
    EXPECT_NE(json.find("drawcall"), std::string::npos);
}

TEST(ChromeTraceTest, EmptySinkStillProducesValidJson)
{
    TelemetrySink sink;
    expectWellFormedJsonArray(telemetry::chromeTraceJson(sink));
}

// ---------------------------------------------------------------------
// Integration with the integrity layer: hang reports carry the last
// events before the stall.
// ---------------------------------------------------------------------

TEST(TelemetryIntegrityTest, HangReportAttachesRecentEvents)
{
    AddressSpace heap(0x8000'0000ull);
    Gpu gpu(smallGpu());
    const StreamId s = gpu.createStream("compute");

    integrity::FaultConfig fc;
    fc.dropFillProb = 1.0;
    fc.maxDroppedFills = 1;
    integrity::FaultInjector inj(fc);
    gpu.setFaultInjector(&inj);
    enqueueVio(gpu, s, heap);

    TelemetrySink sink;
    gpu.setTelemetry(&sink);
    integrity::RunOptions opts;
    opts.checkInterval = 500;
    opts.mshrLeakAge = 2000;
    const auto r = gpu.run(10'000'000ull, opts);

    ASSERT_FALSE(r.completed);
    ASSERT_TRUE(r.hang.has_value());
    ASSERT_FALSE(r.hang->recentEvents.empty());
    EXPECT_LE(r.hang->recentEvents.size(), 16u);
    const std::string text = r.hang->render();
    EXPECT_NE(text.find("last telemetry events"), std::string::npos);
    EXPECT_GT(sink.emitted(), 0u);
}

} // namespace
} // namespace crisp
