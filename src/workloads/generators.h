/**
 * @file
 * Synthetic data generators. The paper evaluates on (a) uniform random
 * 0-1 matrices (design space exploration, Fig. 9/13) and (b) "real data"
 * extracted from LLaMA checkpoints. For (b) we substitute
 * Gaussian-distributed weights — with a small heavy-tail outlier mixture
 * mimicking LLM weight statistics — quantized group-wise and bit-sliced,
 * which reproduces the duplicate-count property the paper reports in
 * Sec. 5.9 (slightly fewer unique TransRows than uniform random data).
 */

#ifndef TA_WORKLOADS_GENERATORS_H
#define TA_WORKLOADS_GENERATORS_H

#include <cstdint>

#include "common/rng.h"
#include "quant/bitslice.h"
#include "quant/matrix.h"
#include "quant/quantizer.h"

namespace ta {

class ParallelExecutor;

/** Uniform random binary matrix with one-probability p. */
MatBit randomBinaryMatrix(size_t rows, size_t cols, double p,
                          uint64_t seed);

/** Uniform random integers covering the full `bits` signed range. */
MatI32 randomIntMatrix(size_t rows, size_t cols, int bits, uint64_t seed);

/** Default outlier mixture of gaussianWeights (and so of the
 *  real-like weights): fraction and sigma multiplier. */
constexpr double kOutlierFrac = 1e-3;
constexpr double kOutlierScale = 8.0;

/**
 * Gaussian weights with an outlier mixture: fraction `outlier_frac` of
 * entries drawn at `outlier_scale` times the base sigma.
 */
MatF gaussianWeights(size_t rows, size_t cols, uint64_t seed,
                     double sigma = 1.0,
                     double outlier_frac = kOutlierFrac,
                     double outlier_scale = kOutlierScale);

/**
 * "Real-like" quantized weights: Gaussian source, group-wise symmetric
 * quantization (g = 128) to `bits`.
 */
MatI32 realLikeWeights(size_t rows, size_t cols, int bits, uint64_t seed);

/** Real-like weights already bit-sliced. */
SlicedMatrix realLikeSlicedWeights(size_t rows, size_t cols, int bits,
                                   uint64_t seed);

/**
 * Real-like weights bit-sliced and packed: the plane `ta_pack` writes
 * into a catalog and the engine's weight memo holds — one packing rule
 * for both, so a catalog entry and an in-memory plane of the same
 * (rows, cols, bits, seed) hold identical bytes, equal to
 * packSlicedBits(realLikeSlicedWeights(rows, cols, bits, seed)).
 *
 * Built in one fused pass per row (generate, group-quantize, slice,
 * pack) with no full-size intermediate matrix. With a `pool`, the
 * rows are sharded over its threads: a serial walk first advances
 * the Gaussian stream to each shard's first row without the
 * transcendental math, so every shard resumes the exact stream and
 * the bytes are the same for every thread count. Must not be given
 * a pool whose run() the caller is already inside.
 */
PackedPlane synthesizePackedPlane(size_t rows, size_t cols, int bits,
                                  uint64_t seed,
                                  ParallelExecutor *pool = nullptr);

/** Gaussian int8 activations (for functional attention runs). */
MatI32 randomActivations(size_t rows, size_t cols, int bits,
                         uint64_t seed);

/** Fraction of one-bits in the bit-sliced form of a weight matrix. */
double slicedBitDensity(const SlicedMatrix &s);

} // namespace ta

#endif // TA_WORKLOADS_GENERATORS_H
