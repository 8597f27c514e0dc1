#include "support/temp_dir.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace fed {

TempDir::TempDir(const std::string& stem) {
  const std::string pattern =
      (std::filesystem::temp_directory_path() / (stem + "_XXXXXX")).string();
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error(
        "TempDir: cannot create " + pattern + ": " +
        std::error_code(errno, std::generic_category()).message());
  }
  path_ = buf.data();
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace fed
