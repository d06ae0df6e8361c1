/**
 * @file
 * Post-training quantization substrate. Implements the quantizer families
 * the paper's evaluation compares (Sec. 5.4): plain symmetric per-tensor
 * integer quantization, group-wise quantization (QServe-style, group size
 * 128 along the reduction dimension), an outlier-victim-pair scheme in the
 * spirit of OliVe, and an adaptive-datatype scheme in the spirit of ANT.
 *
 * All quantizers share one interface so the accuracy-proxy harness
 * (Table 3) can sweep them uniformly.
 */

#ifndef TA_QUANT_QUANTIZER_H
#define TA_QUANT_QUANTIZER_H

#include <string>
#include <vector>

#include "quant/matrix.h"

namespace ta {

/** Result of quantizing a float matrix. */
struct QuantResult
{
    MatI32 values;        ///< integer codes, |code| < 2^(bits-1)
    int bits = 8;         ///< code width S
    int groupSize = 0;    ///< 0 = per-tensor; otherwise group width along K
    /// One scale per (row, group); indexed row * numGroups + group.
    std::vector<float> scales;
    size_t numGroups = 1;

    /** Scale applying to element (r, c). */
    float scaleAt(size_t r, size_t c) const;

    /** Reconstruct the float matrix. */
    MatF dequantize() const;
};

/** Interface shared by all quantizer families. */
class Quantizer
{
  public:
    virtual ~Quantizer() = default;

    /** Human-readable scheme name for report tables. */
    virtual std::string name() const = 0;

    /** Quantize a float matrix (rows x K). */
    virtual QuantResult quantize(const MatF &m) const = 0;
};

/** Symmetric per-tensor quantizer: one scale for the whole matrix. */
class PerTensorQuantizer : public Quantizer
{
  public:
    explicit PerTensorQuantizer(int bits) : bits_(bits) {}
    std::string name() const override;
    QuantResult quantize(const MatF &m) const override;

  private:
    int bits_;
};

/**
 * Group-wise symmetric quantizer: independent scale per row and per group
 * of `groupSize` consecutive columns (the reduction dimension), matching
 * the QServe-style scheme TransArray rides on (Sec. 4.5, group = 128).
 */
class GroupQuantizer : public Quantizer
{
  public:
    GroupQuantizer(int bits, int group_size)
        : bits_(bits), groupSize_(group_size)
    {}
    std::string name() const override;
    QuantResult quantize(const MatF &m) const override;

  private:
    int bits_;
    int groupSize_;
};

/**
 * Outlier-victim-pair quantizer in the spirit of OliVe: per-row scale
 * chosen to cover the bulk (clipping at a percentile); outliers beyond the
 * clip range are encoded by sacrificing ("victimizing") the adjacent value,
 * which we model as preserving the outlier at higher precision while
 * zeroing its victim neighbor.
 */
class OutlierVictimQuantizer : public Quantizer
{
  public:
    explicit OutlierVictimQuantizer(int bits,
                                    double clip_percentile = 0.995)
        : bits_(bits), clipPercentile_(clip_percentile)
    {}
    std::string name() const override;
    QuantResult quantize(const MatF &m) const override;

  private:
    int bits_;
    double clipPercentile_;
};

/**
 * Adaptive-datatype quantizer in the spirit of ANT: per-row, picks the
 * better of int and a power-of-two (float-like) code of the same width.
 * Modeled as choosing per row whichever of {uniform int, log2 code}
 * minimizes squared error.
 */
class AdaptiveTypeQuantizer : public Quantizer
{
  public:
    explicit AdaptiveTypeQuantizer(int bits, int group_size = 0)
        : bits_(bits), groupSize_(group_size)
    {}
    std::string name() const override;
    QuantResult quantize(const MatF &m) const override;

  private:
    int bits_;
    int groupSize_;
};

/**
 * Group-wise symmetric quantization of one row of `cols` values: per
 * run of `group_size` columns, scale = absmax / (2^(bits-1) - 1) and
 * codes[c] = the rounded, clamped code of row[c] / scale. The one
 * absmax and rounding rule GroupQuantizer::quantize and the fused
 * weight synthesis (synthesizePackedPlane) share. `scales`, when not
 * null, receives the ceilDiv(cols, group_size) group scales.
 */
void quantizeRowGroups(const float *row, size_t cols, int bits,
                       int group_size, int32_t *codes, float *scales);

/** Mean squared error between a float matrix and a quantized version. */
double quantMse(const MatF &ref, const QuantResult &q);

/** Signal-to-quantization-noise ratio in dB (higher is better). */
double quantSqnr(const MatF &ref, const QuantResult &q);

} // namespace ta

#endif // TA_QUANT_QUANTIZER_H
