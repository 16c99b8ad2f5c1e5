#include "temp_dir.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace rftc::test {

namespace {

class ProcessTempDir {
 public:
  ProcessTempDir() : owner_(::getpid()) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "rftc_test_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("mkdtemp " + pattern + ": " +
                               std::strerror(errno));
    path_ = pattern;
  }
  ~ProcessTempDir() {
    // A forked child that exits normally runs this too; only the creating
    // process may delete the directory.
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

const ProcessTempDir& process_dir() {
  static const ProcessTempDir dir;
  return dir;
}

}  // namespace

std::string temp_path(const std::string& name) {
  return process_dir().path() + "/" + name;
}

std::string fresh_temp_dir(const std::string& name) {
  const std::string path = temp_path(name);
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

}  // namespace rftc::test
