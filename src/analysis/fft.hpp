// Radix-2 iterative FFT used by the FFT-CPA preprocessing [16, 17]:
// misaligned-in-time traces concentrate key-dependent energy at the same
// frequency bins, so CPA on |FFT(trace)| defeats plain misalignment.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace rftc::analysis {

/// In-place radix-2 decimation-in-time FFT.  `data.size()` must be a power
/// of two; throws std::invalid_argument otherwise.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse = false);

/// Magnitude spectrum of a real signal: the input is zero-padded on the
/// right to N = next_pow2(size) (padding adds no energy, so Parseval holds
/// against the padded signal), and bins 0 .. N/2-1 (the non-redundant half
/// for a real input) are returned.  Throws std::invalid_argument on an
/// empty signal.
std::vector<double> magnitude_spectrum(std::span<const float> signal);

/// magnitude_spectrum rounded to float, written into `out`, which must have
/// next_pow2(signal.size()) / 2 entries.  The padded transform runs in a
/// per-thread scratch buffer, so steady-state calls allocate nothing.
void magnitude_spectrum_into(std::span<const float> signal,
                             std::span<float> out);

/// Smallest power of two >= n; next_pow2(0) == 1.
std::size_t next_pow2(std::size_t n);

}  // namespace rftc::analysis
