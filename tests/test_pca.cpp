#include "analysis/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace rftc::analysis {
namespace {

TEST(Jacobi, DiagonalMatrixIsItsOwnDecomposition) {
  // diag(3, 1, 2) -> eigenvalues {3, 2, 1} sorted descending.
  std::vector<double> m = {3, 0, 0, 0, 1, 0, 0, 0, 2};
  const EigenResult r = jacobi_eigen_symmetric(m, 3);
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 1.0, 1e-12);
}

TEST(Jacobi, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1 with vectors (1,1) and (1,-1).
  std::vector<double> m = {2, 1, 1, 2};
  const EigenResult r = jacobi_eigen_symmetric(m, 2);
  EXPECT_NEAR(r.values[0], 3.0, 1e-10);
  EXPECT_NEAR(r.values[1], 1.0, 1e-10);
  EXPECT_NEAR(std::fabs(r.vectors[0][0]), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(std::fabs(r.vectors[0][1]), std::sqrt(0.5), 1e-8);
}

TEST(Jacobi, EigenvectorsAreOrthonormal) {
  Xoshiro256StarStar rng(3);
  const std::size_t n = 12;
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.gaussian();
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  const EigenResult r = jacobi_eigen_symmetric(m, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double dot = 0;
      for (std::size_t k = 0; k < n; ++k)
        dot += r.vectors[a][k] * r.vectors[b][k];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8) << a << "," << b;
    }
  }
}

TEST(Jacobi, ReconstructsMatrix) {
  Xoshiro256StarStar rng(7);
  const std::size_t n = 8;
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.gaussian();
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  const EigenResult r = jacobi_eigen_symmetric(m, n);
  // A = V diag(L) V^T
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < n; ++k)
        acc += r.vectors[k][i] * r.values[k] * r.vectors[k][j];
      EXPECT_NEAR(acc, m[i * n + j], 1e-7);
    }
}

TEST(Jacobi, RejectsBadSize) {
  std::vector<double> m(5);
  EXPECT_THROW(jacobi_eigen_symmetric(m, 2), std::invalid_argument);
}

trace::TraceSet make_correlated_set(std::size_t n, std::size_t dims,
                                    std::uint64_t seed) {
  // Latent 1-D factor embedded along a fixed direction + isotropic noise.
  Xoshiro256StarStar rng(seed);
  trace::TraceSet set(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const double latent = rng.gaussian() * 5.0;
    std::vector<float> t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double dir = std::sin(static_cast<double>(d));
      t[d] = static_cast<float>(latent * dir + rng.gaussian() * 0.3);
    }
    set.add(std::move(t), aes::Block{}, aes::Block{});
  }
  return set;
}

TEST(Pca, FirstComponentCapturesLatentDirection) {
  const auto set = make_correlated_set(400, 16, 11);
  const PcaBasis basis = compute_pca(set, 4, 400);
  ASSERT_EQ(basis.dims(), 4u);
  // Eigenvalues descending, and the first dominates.
  EXPECT_GT(basis.eigenvalues[0], 10.0 * basis.eigenvalues[1]);
  for (std::size_t i = 1; i < basis.eigenvalues.size(); ++i)
    EXPECT_LE(basis.eigenvalues[i], basis.eigenvalues[i - 1] + 1e-9);
  // The first component is parallel to sin(d) (up to sign).
  double dot = 0, norm = 0;
  for (std::size_t d = 0; d < 16; ++d) {
    dot += basis.components[0][d] * std::sin(static_cast<double>(d));
    norm += std::sin(static_cast<double>(d)) * std::sin(static_cast<double>(d));
  }
  EXPECT_GT(std::fabs(dot) / std::sqrt(norm), 0.98);
}

TEST(Pca, ProjectionVarianceMatchesEigenvalue) {
  const auto set = make_correlated_set(500, 12, 13);
  const PcaBasis basis = compute_pca(set, 2, 500);
  double sum = 0, sum2 = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto p = basis.project(set.trace(i));
    sum += p[0];
    sum2 += static_cast<double>(p[0]) * p[0];
  }
  const double n = static_cast<double>(set.size());
  const double var = (sum2 - sum * sum / n) / (n - 1);
  EXPECT_NEAR(var, basis.eigenvalues[0], 0.1 * basis.eigenvalues[0]);
}

TEST(Pca, ProjectValidatesDimensions) {
  const auto set = make_correlated_set(50, 8, 17);
  const PcaBasis basis = compute_pca(set, 2, 50);
  std::vector<float> wrong(9, 0.0f);
  EXPECT_THROW(basis.project(wrong), std::invalid_argument);
  std::vector<float> short_row(1);
  EXPECT_THROW(basis.project_into(set.trace(0), short_row),
               std::invalid_argument);
}

TEST(Pca, ProjectIntoMatchesProject) {
  const auto set = make_correlated_set(60, 10, 19);
  const PcaBasis basis = compute_pca(set, 3, 60);
  std::vector<float> row(basis.dims());
  for (std::size_t i = 0; i < set.size(); ++i) {
    basis.project_into(set.trace(i), row);
    EXPECT_EQ(row, basis.project(set.trace(i))) << "trace " << i;
  }
}

TEST(Pca, NeedsAtLeastTwoTraces) {
  trace::TraceSet set(4);
  set.add({1, 2, 3, 4}, aes::Block{}, aes::Block{});
  EXPECT_THROW(compute_pca(set, 2, 10), std::invalid_argument);
}

TEST(Pca, ComponentCapClampsToDims) {
  const auto set = make_correlated_set(50, 6, 19);
  const PcaBasis basis = compute_pca(set, 100, 50);
  EXPECT_EQ(basis.dims(), 6u);
}

}  // namespace
}  // namespace rftc::analysis
