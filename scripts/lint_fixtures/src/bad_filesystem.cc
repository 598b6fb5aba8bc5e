// Fixture: direct file I/O outside src/obs/artifact_sink.cc and bench/ must fire
// [direct-filesystem] — once per offending line, each form of access.
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>

namespace medes {

void Persist() {
  FILE* f = fopen("/tmp/state.bin", "wb");
  (void)f;
  std::ofstream out("/tmp/state.txt");
  int fd = open("/tmp/state.raw", O_RDONLY);
  (void)fd;
  std::filesystem::create_directories("/tmp/state.d");
  // Escaped access must NOT fire:
  FILE* ok = fopen("/tmp/ok.bin", "rb");  // medes-lint: allow(direct-filesystem)
  (void)ok;
}

}  // namespace medes
