#include "workloads/generators.h"

#include <algorithm>
#include <cmath>

#include "exec/parallel_executor.h"
#include "kernels/kernel_table.h"

namespace ta {

namespace {

/** Group width of the real-like weights' quantization (Sec. 4.5). */
constexpr int kRealLikeGroup = 128;

/**
 * The element stream gaussianWeights draws — per element one outlier
 * bernoulli (when outlier_frac > 0), then one normal — defined once
 * for every consumer. fill() computes the values; skip() makes the
 * same draws without the log/sqrt (Rng::skipGaussian), so a copy
 * taken after skip(n) continues exactly where fill(n) would have.
 */
class WeightStream
{
  public:
    WeightStream(uint64_t seed, double sigma, double outlier_frac,
                 double outlier_scale)
        : rng_(seed), sigma_(sigma), outlierFrac_(outlier_frac),
          outlierScale_(outlier_scale)
    {}

    void fill(float *out, size_t n) { walk<true>(out, n); }
    void skip(size_t n) { walk<false>(nullptr, n); }

  private:
    template <bool Values>
    void
    walk(float *out, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            double s = sigma_;
            if (outlierFrac_ > 0 && rng_.bernoulli(outlierFrac_))
                s *= outlierScale_;
            if constexpr (Values)
                out[i] = static_cast<float>(rng_.gaussian() * s);
            else
                rng_.skipGaussian();
        }
    }

    Rng rng_;
    double sigma_;
    double outlierFrac_;
    double outlierScale_;
};

/** The stream of gaussianWeights(rows, cols, seed), which
 *  realLikeWeights quantizes. */
WeightStream
realLikeStream(uint64_t seed)
{
    return WeightStream(seed, 1.0, kOutlierFrac, kOutlierScale);
}

} // namespace

MatBit
randomBinaryMatrix(size_t rows, size_t cols, double p, uint64_t seed)
{
    Rng rng(seed);
    MatBit m(rows, cols);
    for (auto &b : m.data())
        b = rng.bernoulli(p) ? 1 : 0;
    return m;
}

MatI32
randomIntMatrix(size_t rows, size_t cols, int bits, uint64_t seed)
{
    Rng rng(seed);
    const int64_t lo = -(1ll << (bits - 1));
    const int64_t hi = (1ll << (bits - 1)) - 1;
    MatI32 m(rows, cols);
    for (auto &v : m.data())
        v = static_cast<int32_t>(rng.uniformInt(lo, hi));
    return m;
}

MatF
gaussianWeights(size_t rows, size_t cols, uint64_t seed, double sigma,
                double outlier_frac, double outlier_scale)
{
    MatF m(rows, cols);
    WeightStream(seed, sigma, outlier_frac, outlier_scale)
        .fill(m.data().data(), m.size());
    return m;
}

MatI32
realLikeWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    const MatF w = gaussianWeights(rows, cols, seed);
    const GroupQuantizer q(bits, kRealLikeGroup);
    return q.quantize(w).values;
}

SlicedMatrix
realLikeSlicedWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    return bitSlice(realLikeWeights(rows, cols, bits, seed), bits);
}

PackedPlane
synthesizePackedPlane(size_t rows, size_t cols, int bits, uint64_t seed,
                      ParallelExecutor *pool)
{
    TA_ASSERT(bits >= 2 && bits <= 16, "unsupported slice width ", bits);
    PackedPlane p;
    p.rows = rows * static_cast<size_t>(bits);
    p.cols = cols;
    p.wordBits = bits;
    p.origRows = rows;
    const size_t stride = ceilDiv(cols, 8);
    p.bytes.assign(p.rows * stride, 0);
    if (p.bytes.empty())
        return p;

    // Stream checkpoints at each shard's first row. With one shard
    // there is nothing to walk: the pass is a single fused walk.
    const int shards = pool != nullptr ? pool->threads() : 1;
    std::vector<WeightStream> starts;
    starts.reserve(shards);
    WeightStream walker = realLikeStream(seed);
    size_t at = 0;
    for (int s = 0; s < shards; ++s) {
        const size_t r0 = ParallelExecutor::shardBegin(rows, s, shards);
        walker.skip((r0 - at) * cols);
        at = r0;
        starts.push_back(walker);
    }

    const auto synthesizeRows = [&](int shard, size_t r0, size_t r1) {
        WeightStream stream = starts[shard];
        std::vector<float> w(cols);
        std::vector<int32_t> codes(cols);
        std::vector<uint8_t> level(cols);
        const KernelTable &kt = kernels();
        for (size_t r = r0; r < r1; ++r) {
            stream.fill(w.data(), cols);
            quantizeRowGroups(w.data(), cols, bits, kRealLikeGroup,
                              codes.data(), nullptr);
            // Sliced row r * bits + b holds bit b of every code
            // (bitSlice's order), packed by the one packing rule.
            uint8_t *dst = p.bytes.data() + r * bits * stride;
            for (int b = 0; b < bits; ++b, dst += stride) {
                kt.sliceLevel(level.data(), codes.data(), cols, b);
                packBitRow(level.data(), cols, dst);
            }
        }
    };
    if (pool != nullptr)
        pool->run(rows, synthesizeRows);
    else
        synthesizeRows(0, 0, rows);
    return p;
}

MatI32
randomActivations(size_t rows, size_t cols, int bits, uint64_t seed)
{
    Rng rng(seed);
    const double sigma = (1 << (bits - 1)) / 4.0;
    const int64_t lo = -(1ll << (bits - 1));
    const int64_t hi = (1ll << (bits - 1)) - 1;
    MatI32 m(rows, cols);
    for (auto &v : m.data()) {
        const int64_t x = std::llround(rng.gaussian() * sigma);
        v = static_cast<int32_t>(std::clamp(x, lo, hi));
    }
    return m;
}

double
slicedBitDensity(const SlicedMatrix &s)
{
    if (s.bits.size() == 0)
        return 0.0;
    return static_cast<double>(countOnes(s.bits)) / s.bits.size();
}

} // namespace ta
