#include "analysis/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace rftc::analysis {

namespace {

/// Samples (mean pass) / covariance rows per shard — pure constants so
/// shard boundaries never depend on the thread count.
constexpr std::size_t kSampleGrain = 32;
constexpr std::size_t kRowGrain = 8;

}  // namespace

void PcaBasis::project_into(std::span<const float> trace,
                            std::span<float> out) const {
  if (trace.size() != mean.size() || out.size() != components.size())
    throw std::invalid_argument("PcaBasis::project: dimension mismatch");
  for (std::size_t c = 0; c < components.size(); ++c) {
    double acc = 0.0;
    const auto& comp = components[c];
    for (std::size_t s = 0; s < mean.size(); ++s)
      acc += (static_cast<double>(trace[s]) - mean[s]) * comp[s];
    out[c] = static_cast<float>(acc);
  }
}

std::vector<float> PcaBasis::project(std::span<const float> trace) const {
  std::vector<float> out(components.size());
  project_into(trace, out);
  return out;
}

EigenResult jacobi_eigen_symmetric(std::vector<double> a, std::size_t n,
                                   int max_sweeps) {
  if (a.size() != n * n)
    throw std::invalid_argument("jacobi_eigen_symmetric: bad matrix size");
  // V starts as identity; rows of V^T will be the eigenvectors.
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += a[i * n + j] * a[i * n + j];
    return std::sqrt(s);
  };

  const double eps = 1e-12 * std::max(1.0, std::accumulate(a.begin(), a.end(),
                                                           0.0,
                                                           [](double m, double x) {
                                                             return std::max(
                                                                 m, std::fabs(x));
                                                           }));

  for (int sweep = 0; sweep < max_sweeps && off_diag_norm() > eps; ++sweep) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::fabs(apq) <= eps) continue;
        const double app = a[p * n + p], aqq = a[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p], akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k], aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k * n + p], vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * n + x] > a[y * n + y];
  });

  EigenResult res;
  res.values.reserve(n);
  res.vectors.reserve(n);
  for (const std::size_t idx : order) {
    res.values.push_back(a[idx * n + idx]);
    std::vector<double> vec(n);
    for (std::size_t k = 0; k < n; ++k) vec[k] = v[k * n + idx];
    res.vectors.push_back(std::move(vec));
  }
  return res;
}

PcaBasis compute_pca(const trace::TraceSet& set, std::size_t n_components,
                     std::size_t max_traces) {
  const std::size_t s = set.samples();
  const std::size_t n = std::min(set.size(), max_traces);
  if (n < 2) throw std::invalid_argument("compute_pca: need >= 2 traces");
  n_components = std::min(n_components, s);

  PcaBasis basis;
  basis.mean.assign(s, 0.0);
  // Each sample's sum accumulates in trace order inside its shard, so the
  // mean (and everything downstream) is bit-identical for any thread count.
  par::parallel_for(0, s, kSampleGrain, [&](std::size_t k0, std::size_t k1) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = set.trace(i);
      for (std::size_t k = k0; k < k1; ++k)
        basis.mean[k] += static_cast<double>(t[k]);
    }
  });
  for (double& m : basis.mean) m /= static_cast<double>(n);

  // Centered fit matrix (disjoint rows, pure per-element transform), then
  // the upper-triangle covariance sharded by row: every cov element still
  // sums its rank-1 contributions in trace order.
  std::vector<double> centered(n * s);
  par::parallel_for(0, n, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const auto t = set.trace(i);
      double* row = centered.data() + i * s;
      for (std::size_t k = 0; k < s; ++k)
        row[k] = static_cast<double>(t[k]) - basis.mean[k];
    }
  });
  std::vector<double> cov(s * s, 0.0);
  par::parallel_for(0, s, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = centered.data() + i * s;
      for (std::size_t r = r0; r < r1; ++r) {
        const double cr = row[r];
        for (std::size_t c = r; c < s; ++c) cov[r * s + c] += cr * row[c];
      }
    }
  });
  for (std::size_t r = 0; r < s; ++r)
    for (std::size_t c = r; c < s; ++c) {
      cov[r * s + c] /= static_cast<double>(n - 1);
      cov[c * s + r] = cov[r * s + c];
    }

  EigenResult eig = jacobi_eigen_symmetric(std::move(cov), s);
  for (std::size_t c = 0; c < n_components; ++c) {
    basis.components.push_back(std::move(eig.vectors[c]));
    basis.eigenvalues.push_back(eig.values[c]);
  }
  return basis;
}

}  // namespace rftc::analysis
