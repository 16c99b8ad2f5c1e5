#include "analysis/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rftc::analysis {

std::size_t next_pow2(std::size_t n) {
  // next_pow2(0) == 1 by definition (the smallest power of two), so
  // callers sizing an FFT from an unvalidated length still get a legal
  // transform size — but see magnitude_spectrum, which rejects empty
  // signals outright rather than returning an empty spectrum.
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0)
    throw std::invalid_argument("fft_inplace: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                       (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

namespace {

/// FFT of `signal` zero-padded to next_pow2(size), in a per-thread buffer
/// that stays valid until the thread's next call.
const std::vector<std::complex<double>>& padded_fft(
    std::span<const float> signal) {
  // An empty signal used to fall through to a 1-point FFT and come back as
  // an empty spectrum — a silent nonsense value for any downstream feature
  // extractor.  Reject it loudly instead.
  if (signal.empty())
    throw std::invalid_argument("magnitude_spectrum: empty signal");
  thread_local std::vector<std::complex<double>> buf;
  buf.assign(next_pow2(signal.size()), {0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i)
    buf[i] = {static_cast<double>(signal[i]), 0.0};
  fft_inplace(buf);
  return buf;
}

}  // namespace

std::vector<double> magnitude_spectrum(std::span<const float> signal) {
  const auto& buf = padded_fft(signal);
  std::vector<double> mag(buf.size() / 2);
  for (std::size_t i = 0; i < mag.size(); ++i) mag[i] = std::abs(buf[i]);
  return mag;
}

void magnitude_spectrum_into(std::span<const float> signal,
                             std::span<float> out) {
  if (out.size() != next_pow2(signal.size()) / 2)
    throw std::invalid_argument("magnitude_spectrum: output length mismatch");
  const auto& buf = padded_fft(signal);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(std::abs(buf[i]));
}

}  // namespace rftc::analysis
