// Exporters for the observability subsystem:
//
//   - ChromeTraceJson: spans -> Chrome trace-event JSON (load in Perfetto /
//     chrome://tracing). Sim-time microseconds map directly onto the trace
//     "ts"/"dur" microsecond fields; lanes map onto tid rows.
//   - MetricsJson: metric snapshots as a JSON document (bench artifacts):
//     counters and gauges with their value, histograms with count, sum and
//     the per-bucket (not cumulative) counts.
//
// All exporters are pure functions of their (already canonically sorted)
// inputs, so their output inherits the determinism of the recorded data.
#ifndef MEDES_OBS_EXPORT_H_
#define MEDES_OBS_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace medes::obs {

// Chrome trace-event JSON for `spans` (as returned by Tracer::Drain()).
// Complete spans become "X" events with ts/dur; kInstantDuration spans become
// "i" instant events. Span args are attached.
std::string ChromeTraceJson(const std::vector<Span>& spans);

// `snapshots` (as returned by MetricsRegistry::Snapshot()) as a JSON array
// of instrument objects.
std::string MetricsJson(const std::vector<MetricSnapshot>& snapshots);

// Writes `content` to `path`, replacing any existing file. Returns false on
// I/O failure. The actual filesystem access happens through the installed
// FileSink (default: WriteArtifactFile in obs/artifact_sink.h) — exporters
// themselves never touch the filesystem, keeping direct I/O in that one
// function.
bool WriteFile(const std::string& path, std::string_view content);

// Replaceable artifact sink. Passing nullptr restores the default
// (WriteArtifactFile). Tests install capture sinks to observe writes
// without touching the filesystem.
using FileSink = bool (*)(const std::string& path, std::string_view content);
void SetFileSink(FileSink sink);

}  // namespace medes::obs

#endif  // MEDES_OBS_EXPORT_H_
