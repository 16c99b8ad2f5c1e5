#include "analysis/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace rftc::analysis {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);  // smallest power of two, by definition
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(125), 128u);
  EXPECT_EQ(next_pow2(128), 128u);
  EXPECT_EQ(next_pow2(129), 256u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> d(6);
  EXPECT_THROW(fft_inplace(d), std::invalid_argument);
  std::vector<std::complex<double>> e;
  EXPECT_THROW(fft_inplace(e), std::invalid_argument);
}

TEST(Fft, DeltaFunctionGivesFlatSpectrum) {
  std::vector<std::complex<double>> d(8, {0, 0});
  d[0] = {1, 0};
  fft_inplace(d);
  for (const auto& v : d) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, PureToneConcentratesInOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> d(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i)
    d[i] = {std::cos(2.0 * std::numbers::pi * k * static_cast<double>(i) /
                     static_cast<double>(n)),
            0.0};
  fft_inplace(d);
  EXPECT_NEAR(std::abs(d[k]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(d[n - k]), n / 2.0, 1e-9);
  for (std::size_t i = 1; i < n / 2; ++i) {
    if (i != static_cast<std::size_t>(k)) {
      EXPECT_NEAR(std::abs(d[i]), 0.0, 1e-9) << i;
    }
  }
}

TEST(Fft, MatchesNaiveDft) {
  Xoshiro256StarStar rng(13);
  const std::size_t n = 32;
  std::vector<std::complex<double>> d(n);
  for (auto& v : d) v = {rng.gaussian(), rng.gaussian()};
  auto ref = d;
  fft_inplace(d);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += ref[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(std::abs(d[k] - acc), 0.0, 1e-9) << k;
  }
}

TEST(Fft, InverseRoundTrips) {
  Xoshiro256StarStar rng(17);
  std::vector<std::complex<double>> d(128);
  for (auto& v : d) v = {rng.gaussian(), rng.gaussian()};
  const auto ref = d;
  fft_inplace(d);
  fft_inplace(d, /*inverse=*/true);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_NEAR(std::abs(d[i] - ref[i]), 0.0, 1e-9);
}

TEST(Fft, ParsevalHolds) {
  Xoshiro256StarStar rng(19);
  std::vector<std::complex<double>> d(256);
  double time_energy = 0;
  for (auto& v : d) {
    v = {rng.gaussian(), 0.0};
    time_energy += std::norm(v);
  }
  fft_inplace(d);
  double freq_energy = 0;
  for (const auto& v : d) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-6 * time_energy);
}

TEST(MagnitudeSpectrum, ShiftInvarianceForTones) {
  // The key property FFT-CPA relies on: a time shift does not change the
  // magnitude spectrum.
  const std::size_t n = 128;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(
        std::sin(2.0 * std::numbers::pi * 7.0 * static_cast<double>(i) / n));
    b[i] = static_cast<float>(std::sin(
        2.0 * std::numbers::pi * 7.0 * static_cast<double>(i + 13) / n));
  }
  const auto ma = magnitude_spectrum(a);
  const auto mb = magnitude_spectrum(b);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i)
    EXPECT_NEAR(ma[i], mb[i], 1e-6);
}

TEST(MagnitudeSpectrum, PadsToPowerOfTwo) {
  std::vector<float> sig(100, 1.0f);
  const auto mag = magnitude_spectrum(sig);
  EXPECT_EQ(mag.size(), 64u);  // 128 / 2
  EXPECT_NEAR(mag[0], 100.0, 1e-9);  // DC = sum of samples
}

TEST(MagnitudeSpectrum, IntoFormIsTheFloatRoundedSpectrum) {
  // The campaign loop writes feature rows in place; each bin must be the
  // vector form's double rounded to float, across reused per-thread
  // scratch of different lengths.
  Xoshiro256StarStar rng(29);
  for (const std::size_t len : {std::size_t{100}, std::size_t{7},
                                std::size_t{256}, std::size_t{1}}) {
    std::vector<float> sig(len);
    for (auto& v : sig) v = static_cast<float>(rng.gaussian());
    const auto mag = magnitude_spectrum(sig);
    std::vector<float> row(mag.size());
    magnitude_spectrum_into(sig, row);
    for (std::size_t k = 0; k < mag.size(); ++k)
      EXPECT_EQ(row[k], static_cast<float>(mag[k])) << "len=" << len;
  }
  std::vector<float> sig(100, 1.0f), wrong(50);
  EXPECT_THROW(magnitude_spectrum_into(sig, wrong), std::invalid_argument);
}

TEST(MagnitudeSpectrum, EmptySignalThrows) {
  // A size-0 trace used to come back as an empty spectrum and flow on
  // silently; it must be rejected at the API boundary.
  const std::vector<float> empty;
  EXPECT_THROW(magnitude_spectrum(empty), std::invalid_argument);
}

TEST(MagnitudeSpectrum, ParsevalHoldsAgainstPaddedSignal) {
  // Zero-padding adds no energy, so for a real signal of any (non-pow2)
  // length: sum x^2 == (|X0|^2 + |X_{N/2}|^2 + 2 * sum_{1..N/2-1} |Xk|^2)/N,
  // where the returned half-spectrum supplies bins 0 .. N/2-1 and the
  // Nyquist bin comes from a direct alternating sum.
  Xoshiro256StarStar rng(23);
  for (const std::size_t len : {std::size_t{37}, std::size_t{64},
                                std::size_t{100}, std::size_t{129}}) {
    std::vector<float> sig(len);
    double time_energy = 0.0;
    for (auto& v : sig) {
      v = static_cast<float>(rng.gaussian());
      time_energy += static_cast<double>(v) * static_cast<double>(v);
    }
    const auto mag = magnitude_spectrum(sig);
    const std::size_t n = next_pow2(len);
    ASSERT_EQ(mag.size(), n / 2);
    double nyquist = 0.0;  // X_{N/2} = sum (-1)^i x_i for a real input
    for (std::size_t i = 0; i < len; ++i)
      nyquist += (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(sig[i]);
    double freq_energy = mag[0] * mag[0] + nyquist * nyquist;
    for (std::size_t k = 1; k < n / 2; ++k)
      freq_energy += 2.0 * mag[k] * mag[k];
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-9 * std::max(1.0, time_energy))
        << "len=" << len;
  }
}

TEST(MagnitudeSpectrum, RoundTripThroughInverseFft) {
  // FFT -> IFFT over the padded signal recovers the original samples (and
  // zeros in the pad): the full forward/backward property at the signal
  // level rather than on a hand-built complex buffer.
  Xoshiro256StarStar rng(29);
  std::vector<float> sig(90);
  for (auto& v : sig) v = static_cast<float>(rng.gaussian());
  const std::size_t n = next_pow2(sig.size());
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  for (std::size_t i = 0; i < sig.size(); ++i)
    buf[i] = {static_cast<double>(sig[i]), 0.0};
  fft_inplace(buf);
  fft_inplace(buf, /*inverse=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = i < sig.size() ? static_cast<double>(sig[i]) : 0.0;
    EXPECT_NEAR(buf[i].real(), want, 1e-9) << i;
    EXPECT_NEAR(buf[i].imag(), 0.0, 1e-9) << i;
  }
}

}  // namespace
}  // namespace rftc::analysis
