// Free-function numeric kernels on flat float spans and Tensors.
//
// Aggregation rules operate on flat gradient vectors (std::vector<float>),
// so most kernels take raw (ptr, size) pairs usable by both Tensor and
// vector callers.

#ifndef DPBR_TENSOR_OPS_H_
#define DPBR_TENSOR_OPS_H_

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace dpbr {
namespace ops {

/// y += alpha * x
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x *= alpha
void Scale(float alpha, float* x, size_t n);

/// The momentum fold phi ← beta·phi + omb·g in one pass, bitwise
/// Scale(beta, phi) then Axpy(omb, g, phi); returns the new phi's
/// ChainedSquaredNorm.
double MomentumFold(float beta, float omb, const float* g, float* phi,
                    size_t n);

/// Σ x_i y_i (double accumulator).
double Dot(const float* x, const float* y, size_t n);

/// ℓ2 norm (double accumulator).
double Norm(const float* x, size_t n);

/// Squared ℓ2 norm.
double SquaredNorm(const float* x, size_t n);

/// Σ x² in eight independent chains (chain k takes i ≡ k mod 8, the tail
/// goes to chain 0, fixed combine tree). Each x² is exact in double and
/// every term is non-negative, so this sum and the sequential SquaredNorm
/// each lie within about n·2⁻⁵³·Σ of the exact sum, whatever order they
/// add in.
double ChainedSquaredNorm(const float* x, size_t n);

/// Half-width of a bracket around ChainedSquaredNorm's `sq` that holds
/// SquaredNorm: 4(n+8)·2⁻⁵³·sq, over twice the two sums' combined error
/// bound, so the rounding of sq ± tolerance stays inside it.
double ChainedSquaredNormTolerance(double sq, size_t n);

/// float(1 / max(Norm(x, n), 1e-12)), bitwise. Computed from the
/// chained sum's bracket: sqrt, max, 1/x and the float cast are all
/// monotone, so when both ends of the bracket give the same float, so
/// does the sequential sum inside it. Recomputes from SquaredNorm only
/// when they differ or the chained sum is not finite.
float InverseNorm(const float* x, size_t n);

/// InverseNorm with the bracket centred on `chained_sq`, which must be
/// ChainedSquaredNorm(x, n) (as MomentumFold returns it).
float InverseNorm(const float* x, size_t n, double chained_sq);

/// x /= max(‖x‖, eps): normalizes to unit length. Returns original norm.
double NormalizeInPlace(float* x, size_t n, double eps = 1e-12);

/// A += alpha * outer(u, v): rank-1 update of row-major A (rows x cols).
void Ger(float alpha, const float* u, const float* v, float* a, size_t rows,
         size_t cols);

// --- vector<float> conveniences for aggregation code ---

std::vector<float> Scaled(const std::vector<float>& x, float alpha);
double Dot(const std::vector<float>& x, const std::vector<float>& y);
double Norm(const std::vector<float>& x);

}  // namespace ops
}  // namespace dpbr

#endif  // DPBR_TENSOR_OPS_H_
