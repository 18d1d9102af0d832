#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace crisp
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(9);
    for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.nextBelow(bound), bound);
        }
    }
    EXPECT_EQ(rng.nextBelow(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Histogram, BasicCounts)
{
    Histogram h(10);
    h.add(3);
    h.add(3);
    h.add(5);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.totalSamples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 3.0 + 5.0) / 3.0);
    EXPECT_EQ(h.modeBucket(), 3u);
    EXPECT_EQ(h.minValue(), 3u);
    EXPECT_EQ(h.maxValue(), 5u);
}

TEST(Histogram, ClampsOverflowIntoLastBucket)
{
    Histogram h(4);
    h.add(100);
    EXPECT_EQ(h.count(4), 1u);
    // Mean keeps the true value even when the bucket clamps.
    EXPECT_DOUBLE_EQ(h.mean(), 100.0);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(8);
    Histogram b(8);
    a.add(1);
    b.add(1);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(1), 2u);
    EXPECT_EQ(a.count(2), 1u);
    EXPECT_EQ(a.totalSamples(), 3u);
}

TEST(Histogram, EmptyIsSane)
{
    Histogram h(4);
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

/** Sum of count(b) over every bucket b = 0..maxTracked(). */
uint64_t
bucketTotal(const Histogram &h)
{
    uint64_t total = 0;
    for (uint64_t b = 0; b <= h.maxTracked(); ++b) {
        total += h.count(b);
    }
    return total;
}

// Conservation: every add/merge lands each sample in exactly one bucket,
// so the buckets sum to the sample count.
TEST(Histogram, SelfConsistentAfterAddsAndMerge)
{
    Histogram h(4);
    EXPECT_EQ(bucketTotal(h), h.totalSamples());
    h.add(1);
    h.add(100); // clamps into the overflow bucket but still counts once
    EXPECT_EQ(bucketTotal(h), h.totalSamples());

    Histogram other(4);
    other.add(2);
    h.merge(other);
    EXPECT_EQ(bucketTotal(h), h.totalSamples());
    EXPECT_EQ(h.totalSamples(), 3u);
}

TEST(StreamStatsAbsorb, FirstCycleKeepsEarliestSetValue)
{
    // Per-SM blocks fold in SM-id order, not launch order: an SM that
    // launched its first CTA later may fold first. firstCycle must end
    // up as the minimum over *set* (non-zero) values, regardless of
    // absorb order.
    StreamStats s;
    StreamStats late;
    late.firstCycle = 100;
    late.lastCycle = 120;
    s.absorb(late);
    EXPECT_EQ(s.firstCycle, 100u);

    StreamStats early;
    early.firstCycle = 50;
    early.lastCycle = 60;
    s.absorb(early);
    EXPECT_EQ(s.firstCycle, 50u); // earlier mark wins even when absorbed second
    EXPECT_EQ(s.lastCycle, 120u);

    StreamStats unset; // 0 == unset, must not clobber a real mark
    s.absorb(unset);
    EXPECT_EQ(s.firstCycle, 50u);

    StreamStats s2;
    StreamStats only;
    only.firstCycle = 70;
    s2.absorb(only);
    EXPECT_EQ(s2.firstCycle, 70u); // empty accumulator adopts the first mark
}

TEST(StreamStatsAbsorb, CountersAndMergesAdd)
{
    StreamStats s;
    s.l1MshrMerges = 2;
    s.l2MshrMerges = 3;
    StreamStats d;
    d.l1MshrMerges = 5;
    d.l2MshrMerges = 7;
    d.l1Accesses = 11;
    s.absorb(d);
    EXPECT_EQ(s.l1MshrMerges, 7u);
    EXPECT_EQ(s.l2MshrMerges, 10u);
    EXPECT_EQ(s.l1Accesses, 11u);
}

TEST(Metrics, PearsonPerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Metrics, PearsonAntiCorrelation)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {3, 2, 1};
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Metrics, PearsonDegenerateInputs)
{
    EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({1.0}, {2.0}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({1.0, 1.0}, {2.0, 3.0}), 0.0);
}

TEST(Metrics, MapeBasics)
{
    std::vector<double> ref = {100, 200};
    std::vector<double> pred = {110, 180};
    size_t skipped = 99;
    EXPECT_NEAR(mape(ref, pred, &skipped), (10.0 + 10.0) / 2.0, 1e-9);
    EXPECT_EQ(skipped, 0u);
}

TEST(Metrics, MapeSkipsZeroReference)
{
    std::vector<double> ref = {0, 100};
    std::vector<double> pred = {50, 150};
    size_t skipped = 0;
    EXPECT_NEAR(mape(ref, pred, &skipped), 50.0, 1e-9);
    EXPECT_EQ(skipped, 1u);
    // Without the out-param the value is unchanged (the skip is logged).
    EXPECT_NEAR(mape(ref, pred), 50.0, 1e-9);
    // All-zero reference: everything skipped, MAPE defined as 0.
    EXPECT_DOUBLE_EQ(mape({0, 0}, {1, 2}, &skipped), 0.0);
    EXPECT_EQ(skipped, 2u);
}

TEST(Metrics, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, -1.0}), 0.0);
}

TEST(StreamStatsTest, Rates)
{
    StreamStats st;
    st.l1Accesses = 10;
    st.l1Hits = 7;
    st.l2Accesses = 4;
    st.l2Hits = 1;
    st.instructions = 100;
    st.firstCycle = 10;
    st.lastCycle = 60;
    EXPECT_DOUBLE_EQ(st.l1HitRate(), 0.7);
    EXPECT_DOUBLE_EQ(st.l2HitRate(), 0.25);
    EXPECT_DOUBLE_EQ(st.ipc(), 2.0);
}

TEST(StatsRegistryTest, StreamsAndMerge)
{
    StatsRegistry stats;
    stats.stream(0).instructions = 10;
    stats.stream(1).instructions = 20;
    EXPECT_EQ(stats.sumOver(&StreamStats::instructions), 30u);
    EXPECT_NE(stats.findStream(0), nullptr);
    EXPECT_EQ(stats.findStream(9), nullptr);

    // merge() folds every block in (StreamStats::absorb) and leaves its
    // source as it was.
    StatsRegistry other;
    other.stream(1).instructions = 5;
    other.stream(1).firstCycle = 7;
    other.stream(2).instructions = 1;
    stats.merge(other);
    EXPECT_EQ(stats.stream(1).instructions, 25u);
    EXPECT_EQ(stats.stream(1).firstCycle, 7u);
    EXPECT_EQ(stats.stream(2).instructions, 1u);
    EXPECT_EQ(other.stream(1).instructions, 5u);
    EXPECT_EQ(other.allStreams().size(), 2u);

    stats.clear();
    EXPECT_EQ(stats.allStreams().size(), 0u);
}

TEST(TableTest, TextAndCsv)
{
    Table t({"name", "value"});
    t.addRow({"a", Table::num(1.5, 1)});
    t.addRow({"with,comma", "2"});
    const std::string text = t.toText();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(DataClassTest, Names)
{
    EXPECT_STREQ(dataClassName(DataClass::Texture), "texture");
    EXPECT_STREQ(dataClassName(DataClass::Pipeline), "pipeline");
    EXPECT_STREQ(dataClassName(DataClass::Compute), "compute");
    EXPECT_STREQ(dataClassName(DataClass::Unknown), "unknown");
}

TEST(Json, ParsesEscapesNumbersAndNestedContainers)
{
    const std::string text = R"({
        "name": "line1\nline2\t\"quoted\"",
        "count": 123456789,
        "ratio": 0.25,
        "flag": true,
        "none": null,
        "items": [1, "two", {"deep": false}]
    })";
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(text, doc, err)) << err;

    EXPECT_EQ(doc.at("name").asString(), "line1\nline2\t\"quoted\"");
    EXPECT_EQ(doc.at("count").asU64(), 123456789u);
    EXPECT_DOUBLE_EQ(doc.at("ratio").asDouble(), 0.25);
    EXPECT_TRUE(doc.at("flag").asBool());
    EXPECT_TRUE(doc.at("none").isNull());
    ASSERT_EQ(doc.at("items").items().size(), 3u);
    EXPECT_EQ(doc.at("items").items()[0].asU64(), 1u);
    EXPECT_EQ(doc.at("items").items()[1].asString(), "two");
    EXPECT_FALSE(doc.at("items").items()[2].at("deep").asBool(true));
}

TEST(Json, MalformedInputsAreRejectedNotCrashes)
{
    const char *bad[] = {
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "[1,2",
        "\"unterminated",
        "{\"a\" 1}",
        "nul",
        "truex",
        "{\"a\":1} trailing",
        "\"bad escape \\q\"",
        "{\"dup\":1 \"dup\":2}",
        "{\"dup\":1,\"dup\":2}",
        "01",
        "- 1",
        "1.",
        "1.e5",
        "\x01",
    };
    for (const char *text : bad) {
        Json out;
        std::string err;
        EXPECT_FALSE(Json::parse(text, out, err))
            << "accepted: " << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Json, DuplicateKeyIsReportedAtTheKey)
{
    Json out;
    std::string err;
    // The same key in a sibling object is fine; a repeat in one object
    // is an error pointing at the repeated key's opening quote.
    ASSERT_FALSE(Json::parse(R"({"a":1, "b":{"a":2, "a":3}})", out, err));
    EXPECT_EQ(err, "offset 20: duplicate key \"a\"");
}

TEST(Json, NumberAccessorsFallBackOnMismatch)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(
        R"({"neg":-4,"frac":1.5,"big":4294967296,"s":"7"})", doc, err))
        << err;
    // asU64 refuses negatives and non-integers, not just non-numbers.
    EXPECT_EQ(doc.at("neg").asU64(99), 99u);
    EXPECT_EQ(doc.at("frac").asU64(99), 99u);
    EXPECT_EQ(doc.at("big").asU64(), 4294967296ull);
    EXPECT_EQ(doc.at("s").asU64(99), 99u);
    EXPECT_DOUBLE_EQ(doc.at("neg").asDouble(), -4.0);
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_TRUE(doc.at("missing").isNull());
}

} // namespace
} // namespace crisp
