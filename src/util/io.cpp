#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rftc {

void publish_file(const std::string& tmp, const std::string& path) {
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("rename " + tmp + " -> " + path +
                             " failed: " + std::strerror(errno));
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void write_csv(const std::string& path, std::span<const std::string> header,
               std::span<const std::vector<double>> columns) {
  if (columns.empty()) throw std::runtime_error("write_csv: no columns");
  const std::size_t rows = columns.front().size();
  for (const auto& c : columns)
    if (c.size() != rows) throw std::runtime_error("write_csv: ragged columns");
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_csv: cannot open " + path);
  for (std::size_t i = 0; i < header.size(); ++i)
    f << (i ? "," : "") << header[i];
  f << "\n";
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns.size(); ++c)
      f << (c ? "," : "") << columns[c][r];
    f << "\n";
  }
  if (!f) throw std::runtime_error("write_csv: write failed for " + path);
}

std::string ascii_plot(std::span<const std::vector<double>> series,
                       std::size_t width, std::size_t height, double y_lo,
                       double y_hi) {
  if (series.empty()) return {};
  if (y_hi <= y_lo) {
    y_lo = 1e300;
    y_hi = -1e300;
    for (const auto& s : series)
      for (double v : s) {
        y_lo = std::min(y_lo, v);
        y_hi = std::max(y_hi, v);
      }
    if (y_hi <= y_lo) y_hi = y_lo + 1.0;
  }
  std::vector<std::string> grid(height, std::string(width, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const auto& s = series[si];
    if (s.empty()) continue;
    const char mark = static_cast<char>('a' + (si % 26));
    for (std::size_t x = 0; x < width; ++x) {
      const double fx = static_cast<double>(x) /
                        static_cast<double>(std::max<std::size_t>(width - 1, 1));
      const auto idx = static_cast<std::size_t>(
          fx * static_cast<double>(s.size() - 1) + 0.5);
      const double v = s[std::min(idx, s.size() - 1)];
      double fy = (v - y_lo) / (y_hi - y_lo);
      fy = std::clamp(fy, 0.0, 1.0);
      const auto row = static_cast<std::size_t>(
          (1.0 - fy) * static_cast<double>(height - 1) + 0.5);
      grid[std::min(row, height - 1)][x] = mark;
    }
  }
  std::ostringstream os;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%8.3g +", y_hi);
  os << buf << std::string(width, '-') << "\n";
  for (auto& row : grid) os << "         |" << row << "\n";
  std::snprintf(buf, sizeof buf, "%8.3g +", y_lo);
  os << buf << std::string(width, '-') << "\n";
  return os.str();
}

}  // namespace rftc
