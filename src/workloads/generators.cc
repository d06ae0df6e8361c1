#include "workloads/generators.h"

#include <algorithm>
#include <cmath>

namespace ta {

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
    Rng rng(seed);
    MatF m(rows, cols);
    for (auto &v : m.data()) {
        double s = sigma;
        if (outlier_frac > 0 && rng.bernoulli(outlier_frac))
            s *= outlier_scale;
        v = static_cast<float>(rng.gaussian() * s);
    }
    return m;
}

MatI32
realLikeWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    const MatF w = gaussianWeights(rows, cols, seed);
    const GroupQuantizer q(bits, 128);
    return q.quantize(w).values;
}

SlicedMatrix
realLikeSlicedWeights(size_t rows, size_t cols, int bits, uint64_t seed)
{
    return bitSlice(realLikeWeights(rows, cols, bits, seed), bits);
}

PackedPlane
synthesizePackedPlane(size_t rows, size_t cols, int bits, uint64_t seed)
{
    PackedPlane p;
    p.bytes = packSlicedBits(realLikeSlicedWeights(rows, cols, bits, seed));
    p.rows = rows * static_cast<size_t>(bits);
    p.cols = cols;
    p.wordBits = bits;
    p.origRows = rows;
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
