#include "obs/artifact_sink.h"

#include <cstdio>

namespace medes::obs {

bool WriteArtifactFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  return written == content.size() && close_rc == 0;
}

}  // namespace medes::obs
