#include "obs/export.h"

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "obs/artifact_sink.h"

namespace medes::obs {

namespace {

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendInt(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendUint(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(out, span.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, span.category);
    out += "\",\"ph\":\"";
    const bool instant = span.dur == kInstantDuration;
    out += instant ? 'i' : 'X';
    out += "\",\"ts\":";
    AppendInt(out, span.ts.value());
    if (!instant) {
      out += ",\"dur\":";
      AppendInt(out, span.dur.value());
    }
    out += ",\"pid\":0,\"tid\":";
    AppendInt(out, span.lane);
    if (instant) {
      out += ",\"s\":\"t\"";  // thread-scoped instant marker
    }
    if (span.num_args > 0 || span.trace_id != 0) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (uint32_t i = 0; i < span.num_args; ++i) {
        if (!first_arg) {
          out += ',';
        }
        first_arg = false;
        out += '"';
        AppendJsonEscaped(out, span.args[i].key);
        out += "\":";
        AppendInt(out, span.args[i].value);
      }
      if (span.trace_id != 0) {
        if (!first_arg) {
          out += ',';
        }
        out += "\"trace_id\":";
        AppendUint(out, span.trace_id);
        out += ",\"span_id\":";
        AppendUint(out, span.span_id);
        if (span.parent_span_id != 0) {
          out += ",\"parent_span_id\":";
          AppendUint(out, span.parent_span_id);
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string MetricsJson(const std::vector<MetricSnapshot>& snapshots) {
  std::string out = "[";
  bool first = true;
  for (const MetricSnapshot& snap : snapshots) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(out, snap.name);
    out += "\",\"kind\":\"";
    out += ToString(snap.kind);
    out += '"';
    if (!snap.label_key.empty()) {
      out += ",\"";
      AppendJsonEscaped(out, snap.label_key);
      out += "\":\"";
      AppendJsonEscaped(out, snap.label_value);
      out += '"';
    }
    if (snap.kind == InstrumentKind::kHistogram) {
      out += ",\"count\":";
      AppendUint(out, snap.histogram.count);
      out += ",\"sum\":";
      AppendInt(out, snap.histogram.sum);
      out += ",\"buckets\":[";
      for (size_t b = 0; b < HistogramValue::kNumBuckets; ++b) {
        if (b > 0) {
          out += ',';
        }
        AppendUint(out, snap.histogram.buckets[b]);
      }
      out += ']';
    } else {
      out += ",\"value\":";
      AppendInt(out, snap.value);
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

namespace {

std::atomic<FileSink> g_file_sink{nullptr};

}  // namespace

void SetFileSink(FileSink sink) { g_file_sink.store(sink, std::memory_order_relaxed); }

bool WriteFile(const std::string& path, std::string_view content) {
  const FileSink sink = g_file_sink.load(std::memory_order_relaxed);
  if (sink != nullptr) {
    return sink(path, content);
  }
  return WriteArtifactFile(path, content);
}

}  // namespace medes::obs
