/** @file Unit tests for logging, RNG, stats, CLI-parsing and table
 *  utilities. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/cli.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace ta {
namespace {

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(TA_FATAL("bad config ", 42), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(TA_PANIC("broken invariant"), std::logic_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(TA_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(TA_ASSERT(false, "nope"), std::logic_error);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::vector<int> hits(4, 0);
    for (int i = 0; i < 4000; ++i)
        ++hits[rng.uniformInt(0, 3)];
    for (int h : hits)
        EXPECT_GT(h, 800); // each bucket near 1000
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(9);
    int ones = 0;
    for (int i = 0; i < 10000; ++i)
        ones += rng.bernoulli(0.3);
    EXPECT_NEAR(ones / 10000.0, 0.3, 0.02);
}

/** FNV-1a over raw bytes: pins exact output bits. */
uint64_t
fnvBytes(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Rng, StreamBitsArePinned)
{
    // Every workload generator's bytes rest on these draws; the value
    // is the stream of the out-of-line generator the inline one
    // replaced.
    Rng r(42);
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = r.next();
        h = fnvBytes(h, &v, sizeof v);
    }
    for (int i = 0; i < 1001; ++i) {
        const double d = r.gaussian();
        h = fnvBytes(h, &d, sizeof d);
    }
    for (int i = 0; i < 100; ++i) {
        const double d = r.uniformDouble();
        const bool b = r.bernoulli(0.3);
        const int64_t k = r.uniformInt(-5, 9);
        h = fnvBytes(h, &d, sizeof d);
        h = fnvBytes(h, &b, sizeof b);
        h = fnvBytes(h, &k, sizeof k);
    }
    EXPECT_EQ(h, 0x456450fdeaf1b6f9ull);
}

TEST(Rng, SkipGaussianResumesTheExactStream)
{
    // Skip n normals, then draw: the values (a pending spare included,
    // computed late) equal drawing all of them, for odd and even n.
    for (int n = 0; n < 9; ++n) {
        Rng drawn(77), skipped(77);
        for (int i = 0; i < n; ++i) {
            drawn.gaussian();
            skipped.skipGaussian();
        }
        Rng copy = skipped; // a checkpoint continues the same stream
        for (int i = 0; i < 5; ++i) {
            const double want = drawn.gaussian();
            EXPECT_EQ(skipped.gaussian(), want) << "n " << n << " i " << i;
            EXPECT_EQ(copy.gaussian(), want) << "n " << n << " i " << i;
        }
        EXPECT_EQ(skipped.next(), drawn.next());
    }
}

TEST(Stats, AddSetGet)
{
    StatGroup g("unit");
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_FALSE(g.has("x"));
    g.add("x");
    g.add("x", 4);
    EXPECT_EQ(g.get("x"), 5u);
    g.set("x", 2);
    EXPECT_EQ(g.get("x"), 2u);
    EXPECT_TRUE(g.has("x"));
}

TEST(Stats, MergeAndReset)
{
    StatGroup a("a"), b("b");
    a.add("ops", 3);
    b.add("ops", 4);
    b.add("cycles", 10);
    a.merge(b);
    EXPECT_EQ(a.get("ops"), 7u);
    EXPECT_EQ(a.get("cycles"), 10u);
    a.reset();
    EXPECT_EQ(a.get("ops"), 0u);
    EXPECT_TRUE(a.has("ops"));
}

TEST(Stats, DumpFormat)
{
    StatGroup g("core");
    g.add("adds", 2);
    EXPECT_EQ(g.dump(), "core.adds 2\n");
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentileOf(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 100), 10.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 50), 5.5);
    EXPECT_DOUBLE_EQ(percentileOf(v, 25), 3.25);
    // Order-independent (sorted internally).
    EXPECT_DOUBLE_EQ(percentileOf({3, 1, 2}, 50), 2.0);
    EXPECT_DOUBLE_EQ(percentileOf({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentileOf({7}, 99), 7.0);
}

TEST(Stats, PercentileSummaryMatchesSingleCalls)
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(static_cast<double>(i));
    const PercentileSummary s = percentileSummary(v);
    EXPECT_DOUBLE_EQ(s.p50, percentileOf(v, 50));
    EXPECT_DOUBLE_EQ(s.p95, percentileOf(v, 95));
    EXPECT_DOUBLE_EQ(s.p99, percentileOf(v, 99));
    EXPECT_LT(s.p50, s.p95);
    EXPECT_LT(s.p95, s.p99);
}

TEST(Cli, ParseIntFlagAcceptsInRange)
{
    int v = 0;
    EXPECT_TRUE(parseIntFlag("--threads", "8", 1, 256, v));
    EXPECT_EQ(v, 8);
    long long w = 0;
    EXPECT_TRUE(parseIntFlag("--x", "-3", -10, 10, w));
    EXPECT_EQ(w, -3);
}

TEST(Cli, ParseIntFlagRejectsGarbageAndRange)
{
    int v = 7;
    EXPECT_FALSE(parseIntFlag("--threads", "0", 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", "-1", 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", "abc", 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", "4x", 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", "", 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", nullptr, 1, 256, v));
    EXPECT_FALSE(parseIntFlag("--threads", "257", 1, 256, v));
    EXPECT_FALSE(
        parseIntFlag("--threads", "99999999999999999999", 1, 256, v));
    EXPECT_EQ(v, 7); // untouched on failure
}

TEST(Cli, ParseU64FlagRejectsNegativeWrap)
{
    uint64_t v = 5;
    // strtoull would wrap "-1" to 2^64-1; the validated parser must not.
    EXPECT_FALSE(parseU64Flag("--batch", "-1", 1, 4096, v));
    EXPECT_FALSE(parseU64Flag("--batch", "+2", 1, 4096, v));
    EXPECT_TRUE(parseU64Flag("--seed", "18446744073709551615", 0,
                             ~0ull, v));
    EXPECT_EQ(v, ~0ull);
    size_t s = 0;
    EXPECT_TRUE(parseSizeFlag("--batch", "16", 1, 4096, s));
    EXPECT_EQ(s, 16u);
}

TEST(Table, RendersHeaderAndRows)
{
    Table t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| 1 "), std::string::npos);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

} // namespace
} // namespace ta
