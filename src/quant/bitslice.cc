#include "quant/bitslice.h"

#include <algorithm>

#include "kernels/kernel_table.h"

namespace ta {

int64_t
SlicedMatrix::levelWeight(size_t r) const
{
    const int level = bitLevel(r);
    const int64_t mag = 1ll << level;
    return level == wordBits - 1 ? -mag : mag;
}

SlicedMatrix
bitSlice(const MatI32 &m, int word_bits)
{
    TA_ASSERT(word_bits >= 2 && word_bits <= 16,
              "unsupported slice width ", word_bits);
    const int64_t lo = -(1ll << (word_bits - 1));
    const int64_t hi = (1ll << (word_bits - 1)) - 1;

    SlicedMatrix s;
    s.wordBits = word_bits;
    s.origRows = m.rows();
    s.bits = MatBit(m.rows() * word_bits, m.cols(), 0);
    const KernelTable &kt = kernels();
    for (size_t r = 0; r < m.rows(); ++r) {
        const int32_t *row = m.rowPtr(r);
        for (size_t c = 0; c < m.cols(); ++c) {
            const int32_t v = row[c];
            if (v < lo || v > hi) {
                TA_FATAL("value ", v, " at (", r, ",", c,
                         ") exceeds ", word_bits, "-bit range");
            }
        }
        // 2's complement bit pattern of each value, one level row per
        // bit. Extracting bit b of the raw int32 equals extracting it
        // from the word_bits-masked pattern for b < word_bits, so the
        // kernel needs no separate mask step.
        for (int b = 0; b < word_bits; ++b)
            kt.sliceLevel(s.bits.rowPtr(r * word_bits + b), row,
                          m.cols(), b);
    }
    return s;
}

MatI32
bitUnslice(const SlicedMatrix &s)
{
    MatI32 m(s.origRows, s.bits.cols(), 0);
    for (size_t r = 0; r < s.bits.rows(); ++r) {
        const int64_t w = s.levelWeight(r);
        const size_t orow = s.origRow(r);
        for (size_t c = 0; c < s.bits.cols(); ++c)
            m.at(orow, c) += static_cast<int32_t>(w * s.bits.at(r, c));
    }
    return m;
}

std::vector<TransRow>
extractTransRows(const SlicedMatrix &s, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end)
{
    std::vector<TransRow> rows;
    extractTransRows(s, t_bits, chunk, row_begin, row_end, rows);
    return rows;
}

void
extractTransRows(const SlicedMatrix &s, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end,
                 std::vector<TransRow> &out)
{
    TA_ASSERT(row_end <= s.bits.rows(), "row range out of bounds");
    const size_t c0 = chunk * t_bits;
    TA_ASSERT(c0 < s.bits.cols(), "chunk out of bounds");
    const size_t c1 = std::min(s.bits.cols(), c0 + t_bits);

    out.clear();
    out.reserve(row_end - row_begin);
    const KernelTable &kt = kernels();
    for (size_t r = row_begin; r < row_end; ++r) {
        const uint32_t v = kt.packBits(s.bits.rowPtr(r) + c0, c1 - c0);
        out.push_back({v, static_cast<uint32_t>(r)});
    }
}

void
extractTransRows(const WeightView &v, int t_bits, size_t chunk,
                 size_t row_begin, size_t row_end,
                 std::vector<TransRow> &out)
{
    TA_ASSERT(row_end <= v.rows, "row range out of bounds");
    const size_t c0 = chunk * t_bits;
    TA_ASSERT(c0 < v.cols, "chunk out of bounds");
    const size_t c1 = std::min(v.cols, c0 + t_bits);

    // Bit j of the TransRow is binary-matrix column c0 + j — the same
    // rule packBits applies to the byte-per-bit rows, so both
    // extraction paths produce identical values. Columns [c0, c1)
    // live in bytes [c0 >> 3, (c1 - 1) >> 3] (at most five for
    // T <= 32): gather them LSB-first, shift the chunk down to bit 0
    // and mask off the next chunk's columns.
    const size_t b0 = c0 >> 3, b1 = (c1 - 1) >> 3;
    const unsigned shift = c0 & 7;
    const uint64_t mask = (uint64_t{1} << (c1 - c0)) - 1;
    out.clear();
    out.reserve(row_end - row_begin);
    for (size_t r = row_begin; r < row_end; ++r) {
        const uint8_t *row = v.data + r * v.rowStride;
        uint64_t word = 0;
        for (size_t b = b0; b <= b1; ++b)
            word |= static_cast<uint64_t>(row[b]) << (8 * (b - b0));
        out.push_back({static_cast<uint32_t>((word >> shift) & mask),
                       static_cast<uint32_t>(r)});
    }
}

void
packBitRow(const uint8_t *bits, size_t cols, uint8_t *dst)
{
    const KernelTable &kt = kernels();
    // Bit j of a 32-column pack is column c + j, so its four bytes are
    // bytes (c >> 3) .. (c >> 3) + 3 of the packed row.
    for (size_t c = 0; c < cols; c += 32) {
        const size_t n = std::min<size_t>(32, cols - c);
        const uint32_t word = kt.packBits(bits + c, n);
        for (size_t b = 0; b < ceilDiv(n, 8); ++b)
            dst[(c >> 3) + b] = static_cast<uint8_t>(word >> (8 * b));
    }
}

std::vector<uint8_t>
packSlicedBits(const SlicedMatrix &s)
{
    const size_t stride = ceilDiv(s.bits.cols(), 8);
    std::vector<uint8_t> out(s.bits.rows() * stride, 0);
    for (size_t r = 0; r < s.bits.rows(); ++r)
        packBitRow(s.bits.rowPtr(r), s.bits.cols(), out.data() + r * stride);
    return out;
}

uint64_t
countOnes(const MatBit &bits)
{
    return kernels().countOnes(bits.data().data(), bits.data().size());
}

} // namespace ta
