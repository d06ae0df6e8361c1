/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 * A self-contained xoshiro256** implementation so results are reproducible
 * across standard libraries and platforms.
 */

#ifndef TA_COMMON_RNG_H
#define TA_COMMON_RNG_H

#include <cmath>
#include <cstdint>

namespace ta {

/**
 * xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can
 * be plugged into <random> distributions, but the workload generators in
 * this repo use the explicit helpers below for cross-platform determinism.
 *
 * The per-draw helpers are inline: weight synthesis makes millions of
 * draws per layer, and a serial skip walk (skipGaussian) is bound by
 * them. A copy of an Rng continues the stream exactly where the
 * original stands, pending gaussian() spare included.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    result_type operator()() { return next(); }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniformDouble()
    {
        // 53 high-quality bits into [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Standard normal via the polar Box-Muller method; each accepted
     *  (u, v) pair yields two values, the second kept as a spare. */
    double
    gaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spareDeferred_ ? spare_ * polarScale(spareS_) : spare_;
        }
        const Polar p = polar();
        const double mul = polarScale(p.s);
        spare_ = p.v * mul;
        spareDeferred_ = false;
        haveSpare_ = true;
        return p.u * mul;
    }

    /**
     * Advance past one gaussian() draw without its log/sqrt: the same
     * uniform draws in the same order. A spare this leaves pending is
     * kept as its polar (v, s) and computed — with gaussian()'s own
     * expression, so to the same bits — by the gaussian() call that
     * consumes it.
     */
    void
    skipGaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return;
        }
        const Polar p = polar();
        spare_ = p.v;
        spareS_ = p.s;
        spareDeferred_ = true;
        haveSpare_ = true;
    }

    /** Bernoulli with probability p of returning true. */
    bool bernoulli(double p) { return uniformDouble() < p; }

  private:
    /** An accepted polar-method draw: 0 < s = u^2 + v^2 < 1. */
    struct Polar
    {
        double u, v, s;
    };

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** The rejection loop both gaussian() and skipGaussian() run. */
    Polar
    polar()
    {
        double u, v, s;
        do {
            u = 2.0 * uniformDouble() - 1.0;
            v = 2.0 * uniformDouble() - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        return {u, v, s};
    }

    static double
    polarScale(double s)
    {
        return std::sqrt(-2.0 * std::log(s) / s);
    }

    uint64_t state_[4];
    bool haveSpare_ = false;
    /// The spare is held as polar (v, s) in (spare_, spareS_), not as
    /// its value: left by skipGaussian().
    bool spareDeferred_ = false;
    double spare_ = 0.0;
    double spareS_ = 0.0;
};

} // namespace ta

#endif // TA_COMMON_RNG_H
