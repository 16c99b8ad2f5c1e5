// Principal Component Analysis for PCA-CPA attacks [12, 20].
//
// The attacker computes the sample covariance of the (possibly misaligned)
// traces, extracts the leading eigenvectors with a cyclic Jacobi solver,
// and runs CPA on the projections: the first components are assumed to
// carry the key-dependent energy, higher components are treated as noise.
#pragma once

#include <span>
#include <vector>

#include "trace/trace_set.hpp"

namespace rftc::analysis {

struct PcaBasis {
  std::vector<double> mean;                     // S
  std::vector<std::vector<double>> components;  // k rows of length S
  std::vector<double> eigenvalues;              // k, descending

  std::size_t dims() const { return components.size(); }

  /// Project one trace onto the basis: out[c] is the dot product of the
  /// centred trace with component c (out must have dims() entries).
  void project_into(std::span<const float> trace, std::span<float> out) const;

  /// project_into a fresh vector of dims() features.
  std::vector<float> project(std::span<const float> trace) const;
};

/// Jacobi eigen-decomposition of a dense symmetric matrix (row-major n*n).
/// Returns eigenvalues (descending) and matching eigenvectors as rows.
struct EigenResult {
  std::vector<double> values;
  std::vector<std::vector<double>> vectors;
};
EigenResult jacobi_eigen_symmetric(std::vector<double> matrix, std::size_t n,
                                   int max_sweeps = 32);

/// Compute a PCA basis from up to `max_traces` traces of `set`, keeping the
/// top `n_components` components.
PcaBasis compute_pca(const trace::TraceSet& set, std::size_t n_components,
                     std::size_t max_traces);

}  // namespace rftc::analysis
