/** @file Unit + property tests for bit-slicing (Fig. 2 / Sec. 2.1). */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/kernel_table.h"
#include "quant/bitslice.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TEST(BitSlice, ShapeIsSxNByK)
{
    MatI32 m(4, 4, 0);
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.bits.rows(), 16u);
    EXPECT_EQ(s.bits.cols(), 4u);
    EXPECT_EQ(s.wordBits, 4);
    EXPECT_EQ(s.origRows, 4u);
}

TEST(BitSlice, RowMetadata)
{
    MatI32 m(3, 2, 0);
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.origRow(0), 0u);
    EXPECT_EQ(s.origRow(7), 1u);
    EXPECT_EQ(s.bitLevel(0), 0);
    EXPECT_EQ(s.bitLevel(7), 3);
    EXPECT_EQ(s.levelWeight(0), 1);
    EXPECT_EQ(s.levelWeight(1), 2);
    EXPECT_EQ(s.levelWeight(3), -8); // sign bit of a 4-bit word
}

TEST(BitSlice, TwosComplementBits)
{
    MatI32 m(1, 1, -3); // -3 in 4-bit: 1101
    const SlicedMatrix s = bitSlice(m, 4);
    EXPECT_EQ(s.bits.at(0, 0), 1);
    EXPECT_EQ(s.bits.at(1, 0), 0);
    EXPECT_EQ(s.bits.at(2, 0), 1);
    EXPECT_EQ(s.bits.at(3, 0), 1);
}

TEST(BitSlice, OutOfRangeValueIsFatal)
{
    MatI32 m(1, 1, 8); // 4-bit range is [-8, 7]
    EXPECT_THROW(bitSlice(m, 4), std::runtime_error);
    MatI32 ok(1, 1, -8);
    EXPECT_NO_THROW(bitSlice(ok, 4));
}

TEST(BitSlice, UnsliceRoundTripExhaustive4Bit)
{
    // Every 4-bit value survives the round trip.
    MatI32 m(16, 1);
    for (int v = -8; v <= 7; ++v)
        m.at(v + 8, 0) = v;
    EXPECT_TRUE(bitUnslice(bitSlice(m, 4)) == m);
}

class BitSliceRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(BitSliceRoundTrip, RandomMatricesSurvive)
{
    const int bits = GetParam();
    Rng rng(bits * 977);
    const MatI32 m = randomIntMatrix(13, 17, bits, rng.next());
    EXPECT_TRUE(bitUnslice(bitSlice(m, bits)) == m);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitSliceRoundTrip,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16));

TEST(ExtractTransRows, PacksChunkBitsLsbFirst)
{
    MatI32 m(1, 8, 0);
    // One 2-bit word per column: value 1 puts a one-bit at level 0.
    for (int c = 0; c < 8; ++c)
        m.at(0, c) = (c % 2) ? 1 : 0;
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 8, 0, 0, s.bits.rows());
    ASSERT_EQ(rows.size(), 2u);
    // Level-0 sliced row: bits at odd columns -> 0b10101010.
    EXPECT_EQ(rows[0].value, 0b10101010u);
    EXPECT_EQ(rows[1].value, 0u);
    EXPECT_EQ(rows[0].slicedRow, 0u);
}

TEST(ExtractTransRows, EdgeChunkZeroPadded)
{
    MatI32 m(1, 10, 1); // K = 10 with T = 8: second chunk has 2 columns
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 8, 1, 0, 1);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 0b11u); // only two valid bits
}

TEST(ExtractTransRows, RowRange)
{
    MatI32 m(4, 4, 1); // 2-bit range is [-2, 1]
    const SlicedMatrix s = bitSlice(m, 2);
    const auto rows = extractTransRows(s, 4, 0, 2, 6);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].slicedRow, 2u);
    EXPECT_EQ(rows[3].slicedRow, 5u);
}

// ---- packed planes --------------------------------------------------------

/** Restores the dispatched kernel table on scope exit. */
struct KernelGuard
{
    std::string prev;

    KernelGuard() : prev(kernelArch()) {}
    ~KernelGuard() { setKernels(prev); }
};

/** The per-bit packing rule, one shift-or per column: the oracle the
 *  kernel-backed packSlicedBits must reproduce byte for byte. */
std::vector<uint8_t>
packOracle(const SlicedMatrix &s)
{
    const size_t stride = ceilDiv(s.bits.cols(), 8);
    std::vector<uint8_t> out(s.bits.rows() * stride, 0);
    for (size_t r = 0; r < s.bits.rows(); ++r)
        for (size_t c = 0; c < s.bits.cols(); ++c)
            out[r * stride + (c >> 3)] |=
                static_cast<uint8_t>(s.bits.at(r, c) << (c & 7));
    return out;
}

TEST(PackSlicedBits, MatchesPerBitOracleOnRaggedColumns)
{
    KernelGuard guard;
    // cols % 8 != 0 and cols % 32 != 0 (and the aligned cases), so the
    // last pack of a row is a partial word ending mid-byte.
    const size_t cols_list[] = {1, 7, 13, 31, 32, 33, 45, 64, 100, 300};
    for (const char *arch : {"scalar", "auto"}) {
        ASSERT_TRUE(setKernels(arch));
        for (size_t cols : cols_list) {
            for (int bits : {4, 8}) {
                const SlicedMatrix s =
                    realLikeSlicedWeights(5, cols, bits, 60 + cols);
                EXPECT_EQ(packSlicedBits(s), packOracle(s))
                    << arch << " cols " << cols << " bits " << bits;
            }
        }
    }
}

TEST(PackSlicedBits, ViewExtractionMatchesSlicedMatrix)
{
    // Every chunk width, including chunks that straddle byte
    // boundaries (T = 3, 5, 13, 32) and ragged last chunks.
    for (size_t cols : {37u, 64u, 300u}) {
        const SlicedMatrix s = realLikeSlicedWeights(6, cols, 4, 70);
        const PackedPlane p = synthesizePackedPlane(6, cols, 4, 70);
        const WeightView v = p.view();
        ASSERT_EQ(v.rows, s.bits.rows());
        for (int t : {1, 3, 4, 5, 8, 13, 16, 32}) {
            std::vector<TransRow> want, got;
            for (size_t ch = 0; ch < numChunks(cols, t); ++ch) {
                extractTransRows(s, t, ch, 1, s.bits.rows(), want);
                extractTransRows(v, t, ch, 1, v.rows, got);
                ASSERT_EQ(want.size(), got.size());
                for (size_t i = 0; i < want.size(); ++i) {
                    EXPECT_EQ(want[i].value, got[i].value)
                        << "cols " << cols << " t " << t << " chunk "
                        << ch << " row " << i;
                    EXPECT_EQ(want[i].slicedRow, got[i].slicedRow);
                }
            }
        }
    }
}

TEST(PackSlicedBits, PackedBitIsTheViewsColumn)
{
    // The one layout: bit j of byte b is column 8b + j, for packBitRow
    // (which packSlicedBits and the fused synthesis write with) and
    // for WeightView extraction alike. One set column per row.
    const size_t cols = 45;
    MatBit bits(cols, cols, 0);
    for (size_t c = 0; c < cols; ++c)
        bits.at(c, c) = 1;
    const size_t stride = ceilDiv(cols, 8);
    std::vector<uint8_t> packed(cols * stride, 0xff);
    for (size_t r = 0; r < cols; ++r)
        packBitRow(bits.rowPtr(r), cols, packed.data() + r * stride);
    SlicedMatrix s;
    s.bits = bits;
    s.wordBits = 1;
    s.origRows = cols;
    EXPECT_EQ(packed, packSlicedBits(s));
    const WeightView v{packed.data(), stride, cols, cols, 1, cols};
    std::vector<TransRow> got;
    for (size_t c = 0; c < cols; ++c) {
        for (size_t b = 0; b < stride; ++b)
            EXPECT_EQ(packed[c * stride + b],
                      b == c / 8 ? 1u << (c % 8) : 0u)
                << "column " << c << " byte " << b;
        extractTransRows(v, 1, c, 0, cols, got);
        for (size_t r = 0; r < cols; ++r)
            EXPECT_EQ(got[r].value, r == c ? 1u : 0u);
    }
}

TEST(PackSlicedBits, SynthesizedPlaneIsPackedSlicedWeights)
{
    const PackedPlane p = synthesizePackedPlane(9, 45, 8, 71);
    const SlicedMatrix s = realLikeSlicedWeights(9, 45, 8, 71);
    EXPECT_EQ(p.bytes, packOracle(s));
    const WeightView v = p.view();
    EXPECT_EQ(v.data, p.bytes.data());
    EXPECT_EQ(v.rowStride, 6u);
    EXPECT_EQ(v.rows, 72u);
    EXPECT_EQ(v.cols, 45u);
    EXPECT_EQ(v.wordBits, 8);
    EXPECT_EQ(v.origRows, 9u);
}

TEST(CountOnes, MatchesManual)
{
    MatBit b(2, 3, 0);
    b.at(0, 0) = 1;
    b.at(1, 2) = 1;
    EXPECT_EQ(countOnes(b), 2u);
}

TEST(NumChunks, Rounding)
{
    EXPECT_EQ(numChunks(8, 8), 1u);
    EXPECT_EQ(numChunks(9, 8), 2u);
    EXPECT_EQ(numChunks(16, 4), 4u);
}

} // namespace
} // namespace ta
