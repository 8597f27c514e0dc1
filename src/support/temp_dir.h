// A fresh, uniquely named directory under the system temp directory
// ($TMPDIR, else /tmp), removed with its contents on destruction. For
// programs that need scratch files: a fixed path races when two runs
// overlap, and one run's cleanup deletes the other's files.
//
//   TempDir dir("fedprox_checkpoint");
//   save_checkpoint(dir.file("model.bin"), w);

#pragma once

#include <string>

namespace fed {

class TempDir {
 public:
  // Creates <temp>/<stem>_XXXXXX (mkdtemp); throws std::runtime_error
  // when the directory cannot be created.
  explicit TempDir(const std::string& stem);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  // `name` inside the directory.
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace fed
