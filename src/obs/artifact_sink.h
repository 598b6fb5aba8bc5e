// Filesystem sink for observability/bench artifacts (trace JSON, metrics
// JSON, bench reports). Direct filesystem access in src/ is confined to this
// one function by medes-lint: exporters stay pure functions and route every
// byte they persist through it.
//
// Artifacts are not durable state — no fsync, no rename dance; a torn
// artifact is re-generated by re-running the tool that produced it.
#ifndef MEDES_OBS_ARTIFACT_SINK_H_
#define MEDES_OBS_ARTIFACT_SINK_H_

#include <string>
#include <string_view>

namespace medes::obs {

// Writes `content` to `path`, replacing any existing file. Returns false on
// I/O failure.
bool WriteArtifactFile(const std::string& path, std::string_view content);

}  // namespace medes::obs

#endif  // MEDES_OBS_ARTIFACT_SINK_H_
