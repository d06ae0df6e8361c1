/** @file Unit tests for the synthetic data generators (Sec. 5.9 proxy). */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "exec/parallel_executor.h"
#include "scoreboard/analyzer.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TEST(Generators, RandomBinaryDensity)
{
    const MatBit m = randomBinaryMatrix(256, 256, 0.5, 1);
    const double d = static_cast<double>(countOnes(m)) / m.size();
    EXPECT_NEAR(d, 0.5, 0.02);

    const MatBit sparse = randomBinaryMatrix(256, 256, 0.1, 2);
    EXPECT_NEAR(static_cast<double>(countOnes(sparse)) / sparse.size(),
                0.1, 0.02);
}

TEST(Generators, RandomBinaryDeterministic)
{
    EXPECT_TRUE(randomBinaryMatrix(32, 32, 0.5, 7) ==
                randomBinaryMatrix(32, 32, 0.5, 7));
}

TEST(Generators, RandomIntRange)
{
    const MatI32 m = randomIntMatrix(64, 64, 4, 3);
    for (int32_t v : m.data()) {
        EXPECT_GE(v, -8);
        EXPECT_LE(v, 7);
    }
}

TEST(Generators, GaussianWeightsMoments)
{
    const MatF w = gaussianWeights(128, 128, 5, 1.0, 0.0);
    double sum = 0, sq = 0;
    for (float v : w.data()) {
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / w.size(), 0.0, 0.05);
    EXPECT_NEAR(sq / w.size(), 1.0, 0.1);
}

TEST(Generators, OutlierMixtureWidensTails)
{
    const MatF base = gaussianWeights(256, 256, 5, 1.0, 0.0);
    const MatF heavy = gaussianWeights(256, 256, 5, 1.0, 0.01, 10.0);
    auto maxabs = [](const MatF &m) {
        float mx = 0;
        for (float v : m.data())
            mx = std::max(mx, std::abs(v));
        return mx;
    };
    EXPECT_GT(maxabs(heavy), maxabs(base) * 1.5f);
}

TEST(Generators, RealLikeWeightsInRange)
{
    const MatI32 w = realLikeWeights(64, 256, 4, 11);
    for (int32_t v : w.data()) {
        EXPECT_GE(v, -8);
        EXPECT_LE(v, 7);
    }
}

TEST(Generators, RealLikeSlicedShape)
{
    const SlicedMatrix s = realLikeSlicedWeights(16, 64, 8, 1);
    EXPECT_EQ(s.bits.rows(), 128u);
    EXPECT_EQ(s.bits.cols(), 64u);
}

TEST(Generators, ActivationsClampedToBits)
{
    const MatI32 a = randomActivations(64, 64, 8, 9);
    for (int32_t v : a.data()) {
        EXPECT_GE(v, -128);
        EXPECT_LE(v, 127);
    }
}

TEST(Generators, UniqueTransRowCountMatchesSec59)
{
    // Sec. 5.9: 256 uniform random 8-bit TransRows contain ~162 unique
    // values in expectation; real(-like) data slightly fewer.
    const MatBit rand = randomBinaryMatrix(4096, 8, 0.5, 13);
    const auto rand_tiles = tileValues(rand, 8, 256);
    double rand_unique = 0;
    for (const auto &t : rand_tiles)
        rand_unique += std::set<uint32_t>(t.begin(), t.end()).size();
    rand_unique /= rand_tiles.size();
    EXPECT_NEAR(rand_unique, 162.0, 6.0);

    const SlicedMatrix real = realLikeSlicedWeights(512, 64, 8, 17);
    const auto real_tiles = tileValues(real.bits, 8, 256);
    double real_unique = 0;
    for (const auto &t : real_tiles)
        real_unique += std::set<uint32_t>(t.begin(), t.end()).size();
    real_unique /= real_tiles.size();
    EXPECT_LT(real_unique, rand_unique + 2.0);
}

TEST(Generators, SlicedBitDensityNearHalf)
{
    const SlicedMatrix s = realLikeSlicedWeights(128, 128, 8, 19);
    EXPECT_NEAR(slicedBitDensity(s), 0.5, 0.08);
}

/** FNV-1a over raw bytes: pins exact output bits. */
uint64_t
fnvBytes(const void *p, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Generators, SynthesisBitsArePinned)
{
    // The Gaussian stream and the packed real-like plane, pinned to
    // the bytes of the unfused, out-of-line-Rng synthesis: a plane
    // must never change under a refactor of the generator.
    const MatF w = gaussianWeights(17, 333, 7);
    EXPECT_EQ(fnvBytes(w.data().data(), w.size() * sizeof(float)),
              0x4882cba09a0eac69ull);
    const PackedPlane p = synthesizePackedPlane(33, 300, 6, 5);
    ASSERT_EQ(p.bytes.size(), 7524u);
    EXPECT_EQ(fnvBytes(p.bytes.data(), p.bytes.size()),
              0x65ce3f2004e249d6ull);
}

TEST(Generators, SynthesizedPlaneIsUnfusedPlaneForEveryPool)
{
    // The fused, row-sharded synthesis against the unfused oracle
    // (generate, group-quantize, bit-slice, then pack). Shapes: odd
    // cols, so polar spares straddle row boundaries — and shard
    // boundaries, e.g. 5 rows over 3 threads start shard 1 after 333
    // draws; cols % 8 != 0 and cols % 128 != 0; fewer rows than
    // threads; empty planes.
    struct Shape
    {
        size_t rows, cols;
    };
    const Shape shapes[] = {{5, 333}, {7, 129}, {3, 45}, {9, 256},
                            {1, 7},   {0, 64},  {6, 0},  {0, 0}};
    std::vector<std::unique_ptr<ParallelExecutor>> pools;
    for (int threads : {1, 2, 3, 4, 8})
        pools.push_back(std::make_unique<ParallelExecutor>(threads));
    for (const Shape &sh : shapes) {
        for (int bits : {2, 4, 6, 8}) {
            for (uint64_t seed : {1u, 2u, 3u}) {
                const std::vector<uint8_t> want = packSlicedBits(
                    realLikeSlicedWeights(sh.rows, sh.cols, bits, seed));
                const PackedPlane serial =
                    synthesizePackedPlane(sh.rows, sh.cols, bits, seed);
                EXPECT_EQ(serial.bytes, want)
                    << sh.rows << "x" << sh.cols << " bits " << bits
                    << " seed " << seed << " no pool";
                EXPECT_EQ(serial.rows, sh.rows * bits);
                EXPECT_EQ(serial.cols, sh.cols);
                EXPECT_EQ(serial.wordBits, bits);
                EXPECT_EQ(serial.origRows, sh.rows);
                for (const auto &pool : pools) {
                    EXPECT_EQ(synthesizePackedPlane(sh.rows, sh.cols, bits,
                                                    seed, pool.get())
                                  .bytes,
                              want)
                        << sh.rows << "x" << sh.cols << " bits " << bits
                        << " seed " << seed << " threads "
                        << pool->threads();
                }
            }
        }
    }
}

} // namespace
} // namespace ta
