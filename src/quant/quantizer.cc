#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/bitutil.h"

namespace ta {

namespace {

/** Clamp v into the symmetric S-bit signed range. */
int32_t
clampCode(int64_t v, int bits)
{
    const int64_t lo = -(1ll << (bits - 1));
    const int64_t hi = (1ll << (bits - 1)) - 1;
    return static_cast<int32_t>(std::clamp(v, lo, hi));
}

int32_t
roundToCode(float v, float scale, int bits)
{
    if (scale <= 0.0f)
        return 0;
    return clampCode(std::llroundf(v / scale), bits);
}

float
absMax(const float *p, size_t n)
{
    float m = 0.0f;
    for (size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(p[i]));
    return m;
}

} // namespace

float
QuantResult::scaleAt(size_t r, size_t c) const
{
    const size_t g = groupSize > 0 ? c / groupSize : 0;
    return scales[r * numGroups + g];
}

MatF
QuantResult::dequantize() const
{
    MatF out(values.rows(), values.cols());
    for (size_t r = 0; r < values.rows(); ++r)
        for (size_t c = 0; c < values.cols(); ++c)
            out.at(r, c) = values.at(r, c) * scaleAt(r, c);
    return out;
}

std::string
PerTensorQuantizer::name() const
{
    return "per-tensor-int" + std::to_string(bits_);
}

QuantResult
PerTensorQuantizer::quantize(const MatF &m) const
{
    QuantResult q;
    q.bits = bits_;
    q.groupSize = 0;
    q.numGroups = 1;
    const float amax = absMax(m.data().data(), m.size());
    const float scale = amax / ((1 << (bits_ - 1)) - 1);
    // One scale replicated per row keeps scaleAt() uniform.
    q.scales.assign(m.rows(), scale);
    q.values = MatI32(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            q.values.at(r, c) = roundToCode(m.at(r, c), scale, bits_);
    return q;
}

std::string
GroupQuantizer::name() const
{
    return "group" + std::to_string(groupSize_) + "-int" +
           std::to_string(bits_);
}

QuantResult
GroupQuantizer::quantize(const MatF &m) const
{
    TA_ASSERT(groupSize_ > 0, "group size must be positive");
    QuantResult q;
    q.bits = bits_;
    q.groupSize = groupSize_;
    q.numGroups = ceilDiv(m.cols(), groupSize_);
    q.scales.assign(m.rows() * q.numGroups, 0.0f);
    q.values = MatI32(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r)
        quantizeRowGroups(m.rowPtr(r), m.cols(), bits_, groupSize_,
                          q.values.rowPtr(r),
                          q.scales.data() + r * q.numGroups);
    return q;
}

void
quantizeRowGroups(const float *row, size_t cols, int bits, int group_size,
                  int32_t *codes, float *scales)
{
    for (size_t c0 = 0, g = 0; c0 < cols; c0 += group_size, ++g) {
        const size_t c1 = std::min(cols, c0 + group_size);
        const float amax = absMax(row + c0, c1 - c0);
        const float scale = amax / ((1 << (bits - 1)) - 1);
        if (scales != nullptr)
            scales[g] = scale;
        for (size_t c = c0; c < c1; ++c)
            codes[c] = roundToCode(row[c], scale, bits);
    }
}

std::string
OutlierVictimQuantizer::name() const
{
    return "olive-ovp-int" + std::to_string(bits_);
}

QuantResult
OutlierVictimQuantizer::quantize(const MatF &m) const
{
    QuantResult q;
    q.bits = bits_;
    q.groupSize = 0;
    q.numGroups = 1;
    q.scales.assign(m.rows(), 0.0f);
    q.values = MatI32(m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
        // Percentile clipping: sort |row| and scale to the clip point.
        std::vector<float> mags(m.cols());
        for (size_t c = 0; c < m.cols(); ++c)
            mags[c] = std::fabs(m.at(r, c));
        std::vector<float> sorted = mags;
        std::sort(sorted.begin(), sorted.end());
        const size_t idx = std::min(
            sorted.size() - 1,
            static_cast<size_t>(clipPercentile_ * (sorted.size() - 1)));
        const float clip = sorted[idx];
        const float scale = clip / ((1 << (bits_ - 1)) - 1);
        q.scales[r] = scale;
        std::vector<bool> victim_of(m.cols(), false);
        for (size_t c = 0; c < m.cols(); ++c) {
            const float v = m.at(r, c);
            if (victim_of[c]) {
                q.values.at(r, c) = 0; // sacrificed to an outlier
                continue;
            }
            if (std::fabs(v) > clip && scale > 0.0f) {
                // Outlier: the victim's bits buy an exponent + 4-bit
                // mantissa code, so large magnitudes keep ~3% relative
                // precision (the OVP "outlier" encoding).
                const double mag = std::fabs(v) / scale;
                int e = static_cast<int>(std::floor(std::log2(mag)));
                int mant = static_cast<int>(
                    std::round((mag / std::exp2(e) - 1.0) * 16.0));
                if (mant == 16) {
                    mant = 0;
                    ++e;
                }
                e = std::min(e, 26); // keep the code inside int32
                const int64_t code =
                    e >= 4 ? static_cast<int64_t>(16 + mant) << (e - 4)
                           : std::llround(mag);
                q.values.at(r, c) = static_cast<int32_t>(
                    (v < 0 ? -code : code));
                // Victimize the neighbor (zero it).
                const size_t victim = c + 1 < m.cols() ? c + 1 : c - 1;
                q.values.at(r, victim) = 0;
                victim_of[victim] = true;
            } else {
                q.values.at(r, c) = roundToCode(v, scale, bits_);
            }
        }
    }
    return q;
}

std::string
AdaptiveTypeQuantizer::name() const
{
    std::string n = "ant-adaptive-int" + std::to_string(bits_);
    if (groupSize_ > 0)
        n += "-g" + std::to_string(groupSize_);
    return n;
}

QuantResult
AdaptiveTypeQuantizer::quantize(const MatF &m) const
{
    // Start from the uniform-int baseline (per row or per group).
    const int gs = groupSize_ > 0 ? groupSize_
                                  : static_cast<int>(m.cols());
    GroupQuantizer base(bits_, gs);
    QuantResult q = base.quantize(m);

    // Per row, consider the power-of-two ("float-ish") alternative and
    // keep whichever code minimizes squared error.
    for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t g = 0; g < q.numGroups; ++g) {
            const size_t c0 = g * gs;
            const size_t c1 = std::min(m.cols(), c0 + gs);
            const float scale = q.scales[r * q.numGroups + g];
            if (scale <= 0.0f)
                continue;
            double err_int = 0.0, err_pot = 0.0;
            std::vector<int32_t> pot(c1 - c0, 0);
            for (size_t c = c0; c < c1; ++c) {
                const float v = m.at(r, c);
                const float dq = q.values.at(r, c) * scale;
                err_int += static_cast<double>(v - dq) * (v - dq);
                // Power-of-two code: value = sign * 2^e * scale, with e in
                // [0, 2^(bits-1)-1) and a zero code.
                int32_t code = 0;
                if (std::fabs(v) >= scale * 0.5f) {
                    const int max_e = (1 << (bits_ - 1)) - 2;
                    int e = static_cast<int>(std::round(
                        std::log2(std::fabs(v) / scale)));
                    e = std::clamp(e, 0, max_e);
                    code = (v < 0 ? -1 : 1) * (1 << e);
                }
                pot[c - c0] = code;
                const float dq2 = code * scale;
                err_pot += static_cast<double>(v - dq2) * (v - dq2);
            }
            if (err_pot < err_int) {
                for (size_t c = c0; c < c1; ++c)
                    q.values.at(r, c) = pot[c - c0];
            }
        }
    }
    return q;
}

double
quantMse(const MatF &ref, const QuantResult &q)
{
    const MatF dq = q.dequantize();
    double acc = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double d = ref.data()[i] - dq.data()[i];
        acc += d * d;
    }
    return acc / static_cast<double>(ref.size());
}

double
quantSqnr(const MatF &ref, const QuantResult &q)
{
    const MatF dq = q.dequantize();
    double sig = 0.0, noise = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double s = ref.data()[i];
        const double d = s - dq.data()[i];
        sig += s * s;
        noise += d * d;
    }
    if (noise == 0.0)
        return 120.0; // lossless: report a ceiling
    return 10.0 * std::log10(sig / noise);
}

} // namespace ta
