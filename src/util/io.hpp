// Small output helpers: CSV writing and ASCII line plots for bench binaries,
// and the crash-safe publish step shared by every durable file writer.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace rftc {

/// Write a CSV file with a header row and one row per entry of `columns`
/// (all columns must have equal length).  Throws std::runtime_error on I/O
/// failure.
void write_csv(const std::string& path, std::span<const std::string> header,
               std::span<const std::vector<double>> columns);

/// Render a set of equally-sampled series as an ASCII chart, one character
/// per series ('a', 'b', ...), y auto-scaled.  Used by bench binaries to
/// show figure shapes directly in the terminal.
std::string ascii_plot(std::span<const std::vector<double>> series,
                       std::size_t width = 78, std::size_t height = 20,
                       double y_lo = 0.0, double y_hi = -1.0);

/// Publishes `tmp`, already written and fsynced in full, as `path`:
/// rename(2) over any existing file, then fsync of the parent directory so
/// the rename itself survives a crash.  The swap is atomic: a reader sees
/// the old file or the new one, and a reader that opened (or mapped) the
/// old file keeps its inode.  Throws std::runtime_error when the rename
/// fails.
void publish_file(const std::string& tmp, const std::string& path);

}  // namespace rftc
