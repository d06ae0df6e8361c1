/**
 * @file
 * Minimal dense row-major matrix used across the library. Kept deliberately
 * simple: the simulator works with small tiles, so no expression templates
 * or blocking are needed; correctness and clarity win.
 */

#ifndef TA_QUANT_MATRIX_H
#define TA_QUANT_MATRIX_H

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace ta {

/** Dense row-major matrix of element type T. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    Matrix(size_t rows, size_t cols, T fill = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }

    T &
    at(size_t r, size_t c)
    {
        TA_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
                  ") out of (", rows_, ",", cols_, ")");
        return data_[r * cols_ + c];
    }

    const T &
    at(size_t r, size_t c) const
    {
        TA_ASSERT(r < rows_ && c < cols_, "matrix index (", r, ",", c,
                  ") out of (", rows_, ",", cols_, ")");
        return data_[r * cols_ + c];
    }

    // data() + offset, not &data_[...]: a matrix with no columns has
    // no element to index, and its rows still have a (null) start.
    T *rowPtr(size_t r) { return data_.data() + r * cols_; }
    const T *rowPtr(size_t r) const { return data_.data() + r * cols_; }

    std::vector<T> &data() { return data_; }
    const std::vector<T> &data() const { return data_; }

    bool
    operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<T> data_;
};

using MatF = Matrix<float>;
using MatI8 = Matrix<int8_t>;
using MatI32 = Matrix<int32_t>;
using MatI64 = Matrix<int64_t>;
using MatBit = Matrix<uint8_t>; // values restricted to {0, 1}

/**
 * Dense integer GEMM reference: out[n][m] = sum_k w[n][k] * in[k][m].
 * This is the golden model every sparse/transitive execution is checked
 * against.
 */
MatI64 denseGemm(const MatI32 &w, const MatI32 &in);

/** Dense float GEMM reference for quantization-error evaluation. */
MatF denseGemmF(const MatF &w, const MatF &in);

} // namespace ta

#endif // TA_QUANT_MATRIX_H
