// fedlint bad fixture: a fixed /tmp path in an example (fixed-tmp-path).

#include <string>

namespace fixture {

inline std::string scratch_file() { return "/tmp/fixture_scratch.bin"; }

}  // namespace fixture
