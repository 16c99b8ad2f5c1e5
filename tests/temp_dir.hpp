// One private temporary directory per test process.
//
// gtest_discover_tests runs every test case in its own process, and
// `ctest -j` runs those processes at once.  A fixed path under /tmp would
// let one process delete or rewrite files that a sibling process still has
// open or mapped.  Every test file therefore lives under a directory the
// process creates with mkdtemp on first use and removes at exit.
#pragma once

#include <string>

namespace rftc::test {

/// `<this process's directory>/<name>`.  Creates the directory itself on
/// first use, but nothing at the returned path.
std::string temp_path(const std::string& name);

/// temp_path(name), emptied and created as a directory.
std::string fresh_temp_dir(const std::string& name);

}  // namespace rftc::test
