#include "util/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "temp_dir.hpp"

namespace rftc {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(WriteCsv, RoundTripsSimpleTable) {
  const std::string path = test::temp_path("io_test.csv");
  const std::vector<std::string> header = {"a", "b"};
  const std::vector<std::vector<double>> cols = {{1, 2, 3}, {4.5, 5.5, 6.5}};
  write_csv(path, header, cols);
  const std::string content = read_all(path);
  EXPECT_NE(content.find("a,b"), std::string::npos);
  EXPECT_NE(content.find("1,4.5"), std::string::npos);
  EXPECT_NE(content.find("3,6.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteCsv, RejectsRaggedColumns) {
  const std::string path = test::temp_path("io_ragged.csv");
  const std::vector<std::string> header = {"a", "b"};
  const std::vector<std::vector<double>> cols = {{1, 2}, {3}};
  EXPECT_THROW(write_csv(path, header, cols), std::runtime_error);
}

TEST(WriteCsv, RejectsEmptyAndBadPath) {
  EXPECT_THROW(write_csv("/tmp/x.csv", {}, {}), std::runtime_error);
  const std::vector<std::string> header = {"a"};
  const std::vector<std::vector<double>> cols = {{1}};
  EXPECT_THROW(write_csv("/nonexistent-dir-xyz/f.csv", header, cols),
               std::runtime_error);
}

TEST(AsciiPlot, ProducesGridOfRequestedSize) {
  const std::vector<std::vector<double>> series = {{0, 1, 2, 3, 2, 1, 0}};
  const std::string art = ascii_plot(series, 40, 10);
  // 10 grid rows + 2 border rows.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(art.begin(), art.end(), '\n')),
            12u);
  EXPECT_NE(art.find('a'), std::string::npos);
}

TEST(AsciiPlot, MultipleSeriesUseDistinctMarks) {
  const std::vector<std::vector<double>> series = {{0, 0, 0}, {1, 1, 1}};
  const std::string art = ascii_plot(series, 30, 8);
  EXPECT_NE(art.find('a'), std::string::npos);
  EXPECT_NE(art.find('b'), std::string::npos);
}

TEST(AsciiPlot, EmptyInputGivesEmptyString) {
  EXPECT_TRUE(ascii_plot({}).empty());
}

TEST(AsciiPlot, FlatSeriesDoesNotDivideByZero) {
  const std::vector<std::vector<double>> series = {{5, 5, 5, 5}};
  EXPECT_FALSE(ascii_plot(series, 20, 5).empty());
}

}  // namespace
}  // namespace rftc
