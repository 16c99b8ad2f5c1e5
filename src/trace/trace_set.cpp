#include "trace/trace_set.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace rftc::trace {

TraceSet::TraceSet(std::size_t n_samples) : n_samples_(n_samples) {
  if (n_samples == 0) throw std::invalid_argument("TraceSet: zero samples");
}

void TraceSet::add(std::vector<float> trace, const aes::Block& plaintext,
                   const aes::Block& ciphertext) {
  if (trace.size() != n_samples_)
    throw std::invalid_argument("TraceSet::add: sample count mismatch");
  data_.insert(data_.end(), trace.begin(), trace.end());
  plaintexts_.push_back(plaintext);
  ciphertexts_.push_back(ciphertext);
}

void TraceSet::reserve(std::size_t n) {
  data_.reserve(n * n_samples_);
  plaintexts_.reserve(n);
  ciphertexts_.reserve(n);
}

void TraceSet::append(const TraceSet& other) {
  if (other.n_samples_ != n_samples_)
    throw std::invalid_argument("TraceSet::append: sample count mismatch");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  plaintexts_.insert(plaintexts_.end(), other.plaintexts_.begin(),
                     other.plaintexts_.end());
  ciphertexts_.insert(ciphertexts_.end(), other.ciphertexts_.begin(),
                      other.ciphertexts_.end());
}

std::span<const float> TraceSet::trace(std::size_t i) const {
  return {data_.data() + i * n_samples_, n_samples_};
}

std::vector<double> TraceSet::mean_trace() const {
  std::vector<double> mean(n_samples_, 0.0);
  if (size() == 0) return mean;
  for (std::size_t i = 0; i < size(); ++i) {
    const auto t = trace(i);
    for (std::size_t s = 0; s < n_samples_; ++s) mean[s] += t[s];
  }
  for (double& v : mean) v /= static_cast<double>(size());
  return mean;
}

TraceSet TraceSet::downsampled(std::size_t factor) const {
  if (factor == 0) throw std::invalid_argument("TraceSet::downsampled");
  const std::size_t out_samples = n_samples_ / factor;
  if (out_samples == 0)
    throw std::invalid_argument("TraceSet::downsampled: factor too large");
  TraceSet out(out_samples);
  out.reserve(size());
  std::vector<float> buf(out_samples);
  for (std::size_t i = 0; i < size(); ++i) {
    const auto t = trace(i);
    for (std::size_t s = 0; s < out_samples; ++s) {
      double acc = 0.0;
      for (std::size_t k = 0; k < factor; ++k) acc += t[s * factor + k];
      buf[s] = static_cast<float>(acc / static_cast<double>(factor));
    }
    out.add(buf, plaintexts_[i], ciphertexts_[i]);
  }
  return out;
}

namespace {
constexpr char kMagic[8] = {'R', 'T', 'R', 'C', '0', '0', '0', '1'};
}  // namespace

void TraceSet::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("TraceSet::save: cannot open " + path);
  f.write(kMagic, sizeof kMagic);
  const std::uint64_t n = size(), s = n_samples_;
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(&s), sizeof s);
  for (const auto& b : plaintexts_)
    f.write(reinterpret_cast<const char*>(b.data()), 16);
  for (const auto& b : ciphertexts_)
    f.write(reinterpret_cast<const char*>(b.data()), 16);
  f.write(reinterpret_cast<const char*>(data_.data()),
          static_cast<std::streamsize>(data_.size() * sizeof(float)));
  if (!f) throw std::runtime_error("TraceSet::save: write failed for " + path);
}

TraceSet TraceSet::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("TraceSet::load: cannot open " + path);
  // Total file size, for exact-length validation before any allocation: a
  // garbage header must not drive a multi-gigabyte resize, and a truncated
  // or padded file must be rejected up front rather than yielding a
  // silently short read.
  f.seekg(0, std::ios::end);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(f.tellg());
  f.seekg(0, std::ios::beg);
  char magic[8];
  f.read(magic, sizeof magic);
  if (!f || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("TraceSet::load: bad magic in " + path);
  std::uint64_t n = 0, s = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  f.read(reinterpret_cast<char*>(&s), sizeof s);
  if (!f || s == 0)
    throw std::runtime_error("TraceSet::load: corrupt header in " + path);
  // Expected size: 24-byte header + 16-byte plaintext and ciphertext per
  // trace + float32 samples.  Guard the products against overflow first.
  constexpr std::uint64_t kHeaderBytes = 24;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (s > (kMax - 32) / 4)
    throw std::runtime_error("TraceSet::load: implausible header in " + path);
  const std::uint64_t per_trace = 32 + 4 * s;
  if (n > (kMax - kHeaderBytes) / per_trace)
    throw std::runtime_error("TraceSet::load: implausible header in " + path);
  const std::uint64_t expect = kHeaderBytes + n * per_trace;
  if (file_bytes != expect)
    throw std::runtime_error(
        "TraceSet::load: file size mismatch in " + path + " (have " +
        std::to_string(file_bytes) + " bytes, header implies " +
        std::to_string(expect) + ")");
  TraceSet set(s);
  set.plaintexts_.resize(n);
  set.ciphertexts_.resize(n);
  set.data_.resize(n * s);
  for (auto& b : set.plaintexts_) f.read(reinterpret_cast<char*>(b.data()), 16);
  for (auto& b : set.ciphertexts_)
    f.read(reinterpret_cast<char*>(b.data()), 16);
  f.read(reinterpret_cast<char*>(set.data_.data()),
         static_cast<std::streamsize>(set.data_.size() * sizeof(float)));
  if (!f) throw std::runtime_error("TraceSet::load: truncated file " + path);
  return set;
}

}  // namespace rftc::trace
