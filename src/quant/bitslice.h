/**
 * @file
 * Bit-slicing (Fig. 2 of the paper): an S-bit 2's-complement integer matrix
 * of shape (N x K) is decomposed into S binary matrices and re-arranged
 * into one (S*N x K) binary matrix. Row i*S + s of the sliced matrix holds
 * bit s of original row i; bit S-1 is the sign bit and carries weight
 * -2^(S-1), all others +2^s. With wide-enough accumulators this is exactly
 * lossless (Sec. 2.1), which the test suite verifies exhaustively.
 */

#ifndef TA_QUANT_BITSLICE_H
#define TA_QUANT_BITSLICE_H

#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "quant/matrix.h"

namespace ta {

/** A binary matrix produced by bit-slicing plus its row metadata. */
struct SlicedMatrix
{
    MatBit bits;     ///< (S*N x K) matrix of {0,1}
    int wordBits = 0;    ///< S: width of the source integers
    size_t origRows = 0; ///< N: rows of the source matrix

    /** Original row index of sliced row r. */
    size_t origRow(size_t r) const { return r / wordBits; }

    /** Bit level (0 = LSB) of sliced row r. */
    int bitLevel(size_t r) const { return static_cast<int>(r % wordBits); }

    /**
     * Signed weight 2^level (negative for the sign bit) applied when
     * recombining bit-level partial results.
     */
    int64_t levelWeight(size_t r) const;
};

/**
 * Slice an integer matrix with values representable in `word_bits`-bit
 * 2's complement. fatal()s if any value is out of range.
 */
SlicedMatrix bitSlice(const MatI32 &m, int word_bits);

/** Reassemble the integer matrix from its slices (test helper). */
MatI32 bitUnslice(const SlicedMatrix &s);

/**
 * A TransRow: one T-bit-wide segment of one sliced row. `value` packs the
 * T bits (bit j of value corresponds to binary-matrix column chunkCol*T+j);
 * `slicedRow` identifies which sliced row it came from so results can be
 * scattered back with the right shift and sign.
 */
struct TransRow
{
    uint32_t value = 0;
    uint32_t slicedRow = 0;
};

/**
 * Extract the TransRows of column chunk `chunk` (columns
 * [chunk*T, chunk*T+T), zero-padded at the edge) for sliced rows
 * [row_begin, row_end).
 */
std::vector<TransRow> extractTransRows(const SlicedMatrix &s, int t_bits,
                                       size_t chunk, size_t row_begin,
                                       size_t row_end);

/**
 * Allocation-free variant: `out` is cleared and refilled, keeping its
 * capacity. This is the hot-loop entry point — one reused buffer per
 * executor thread extracts every sub-tile without touching the heap.
 */
void extractTransRows(const SlicedMatrix &s, int t_bits, size_t chunk,
                      size_t row_begin, size_t row_end,
                      std::vector<TransRow> &out);

/**
 * A zero-copy, read-only view of a bit-packed sliced weight plane —
 * what the storage tier's BufferManager hands the engine instead of a
 * freshly synthesized SlicedMatrix. Bit c of packed row r lives at
 * data[r * rowStride + (c >> 3)], bit position (c & 7) (LSB-first,
 * matching the kernel packBits convention), so a TransRow extracted
 * from a view is bit-identical to one extracted from the SlicedMatrix
 * the view was packed from. The view does not own `data`; the segment
 * mapping (or test buffer) behind it must outlive every extraction.
 */
struct WeightView
{
    const uint8_t *data = nullptr;
    size_t rowStride = 0; ///< bytes per packed row: ceilDiv(cols, 8)
    size_t rows = 0;      ///< S*N sliced rows
    size_t cols = 0;      ///< K columns
    int wordBits = 0;     ///< S: width of the source integers
    size_t origRows = 0;  ///< N: rows of the source matrix
};

/** extractTransRows over a bit-packed view: same chunk geometry, same
 *  TransRow values and order as the SlicedMatrix overload. */
void extractTransRows(const WeightView &v, int t_bits, size_t chunk,
                      size_t row_begin, size_t row_end,
                      std::vector<TransRow> &out);

/**
 * Pack one byte-per-bit row of `cols` {0,1} bytes into the
 * ceilDiv(cols, 8) bytes of its WeightView row: bit j of byte b is
 * column 8b + j, and the pad bits of the last byte are zero. This
 * is the one packing rule: packSlicedBits
 * applies it to every row, and synthesizePackedPlane — which
 * `ta_pack` and the weight memo both build planes with — applies it
 * to each level row it slices. Packs 32 columns per kernel packBits
 * call; the output is identical under every kernel table.
 */
void packBitRow(const uint8_t *bits, size_t cols, uint8_t *dst);

/**
 * Pack a byte-per-bit SlicedMatrix into the WeightView bit layout
 * (packBitRow on every row, rows padded to whole bytes with zeros).
 * The round-trip tests verify synthesized and stored planes against
 * it.
 */
std::vector<uint8_t> packSlicedBits(const SlicedMatrix &s);

/**
 * An owned bit-packed plane in the WeightView layout: the in-memory
 * counterpart of a pinned catalog entry. view() is valid while the
 * plane lives.
 */
struct PackedPlane
{
    std::vector<uint8_t> bytes; ///< the packSlicedBits layout
    size_t rows = 0;            ///< S*N sliced rows
    size_t cols = 0;            ///< K columns
    int wordBits = 0;           ///< S
    size_t origRows = 0;        ///< N

    WeightView
    view() const
    {
        return {bytes.data(), ceilDiv(cols, 8), rows, cols, wordBits,
                origRows};
    }
};

/** Number of T-wide column chunks covering K columns. */
inline size_t
numChunks(size_t cols, int t_bits)
{
    return ceilDiv(cols, t_bits);
}

/** Total number of set bits in a binary matrix (bit-sparsity numerator). */
uint64_t countOnes(const MatBit &bits);

} // namespace ta

#endif // TA_QUANT_BITSLICE_H
