#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"

namespace medes {

std::vector<ArrivalPattern> DefaultAzurePatterns() {
  // Rates are pre-scaling (the 5x magnification is applied by TraceOptions).
  // The mix follows the Azure trace characterisation: a couple of steady
  // services, several timers, and several bursty rarely-invoked functions.
  std::vector<ArrivalPattern> patterns;
  auto add = [&](const std::string& name, ArrivalKind kind, double rate,
                 SimDuration on = 60 * kSecond, SimDuration off = 240 * kSecond) {
    ArrivalPattern p;
    p.function = ProfileByName(name).id;
    p.kind = kind;
    p.rate_per_s = rate;
    p.mean_on = on;
    p.mean_off = off;
    patterns.push_back(p);
  };
  // Azure-like mix: mostly bursty, rarely-invoked functions (whose idle
  // fleets keep-alive policies struggle with), one steady API-style source,
  // and one timer. OFF-period means straddle the 10-minute keep-alive
  // horizon, which is exactly the regime the paper evaluates.
  add("Vanilla", ArrivalKind::kBursty, 12.0, 30 * kSecond, 350 * kSecond);
  add("LinAlg", ArrivalKind::kPeriodic, 1.0 / 30.0);
  add("ImagePro", ArrivalKind::kBursty, 10.0, 45 * kSecond, 250 * kSecond);
  add("VideoPro", ArrivalKind::kBursty, 5.0, 60 * kSecond, 400 * kSecond);
  add("MapReduce", ArrivalKind::kBursty, 5.0, 60 * kSecond, 700 * kSecond);
  add("HTMLServe", ArrivalKind::kBursty, 14.0, 90 * kSecond, 280 * kSecond);
  add("AuthEnc", ArrivalKind::kPoisson, 6.0);
  add("FeatureGen", ArrivalKind::kBursty, 8.0, 60 * kSecond, 330 * kSecond);
  add("RNNModel", ArrivalKind::kBursty, 7.0, 60 * kSecond, 450 * kSecond);
  add("ModelTrain", ArrivalKind::kBursty, 3.5, 90 * kSecond, 550 * kSecond);
  return patterns;
}

std::vector<ArrivalPattern> PatternsForFunctions(const std::vector<std::string>& names) {
  std::vector<ArrivalPattern> all = DefaultAzurePatterns();
  std::vector<ArrivalPattern> out;
  for (const std::string& name : names) {
    FunctionId id = ProfileByName(name).id;
    auto it = std::find_if(all.begin(), all.end(),
                           [&](const ArrivalPattern& p) { return p.function == id; });
    if (it == all.end()) {
      throw std::out_of_range("no pattern for function: " + name);
    }
    out.push_back(*it);
  }
  return out;
}

namespace {

void Validate(const std::vector<ArrivalPattern>& patterns, const TraceOptions& opts) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("GenerateTrace: " + what);
  };
  if (opts.duration < SimDuration{}) {
    fail("negative duration");
  }
  if (!std::isfinite(opts.rate_scale) || opts.rate_scale < 0) {
    fail("rate_scale must be finite and >= 0");
  }
  for (const ArrivalPattern& p : patterns) {
    const std::string who = "pattern for function " + std::to_string(p.function) + ": ";
    if (!std::isfinite(p.rate_per_s) || p.rate_per_s < 0) {
      fail(who + "rate_per_s must be finite and >= 0");
    }
    if (p.kind == ArrivalKind::kPeriodic && !(p.jitter_fraction >= 0 && p.jitter_fraction < 1)) {
      fail(who + "jitter_fraction must be in [0, 1)");
    }
    // GeneratePeriodic runs int(rate_scale) streams, so the count must fit.
    if (p.kind == ArrivalKind::kPeriodic && opts.rate_scale >= 2147483648.0) {
      fail(who + "rate_scale must be < 2^31 for a periodic pattern");
    }
    if (p.kind == ArrivalKind::kBursty &&
        (p.mean_on <= SimDuration{} || p.mean_off <= SimDuration{})) {
      fail(who + "mean_on and mean_off must be > 0");
    }
  }
}

// Output capacity: the patterns' mean arrival count with headroom, since a
// bursty pattern's ON time varies widely between seeds (the default mix
// drew 0.79-1.27x its mean over 60 seeds). Capacity that is never written is
// never faulted in.
size_t ReserveFor(const std::vector<ArrivalPattern>& patterns, const TraceOptions& opts) {
  double mean = 0;
  for (const ArrivalPattern& p : patterns) {
    const double unscaled = p.rate_per_s * ToSeconds(opts.duration);
    const double on = ToSeconds(p.mean_on);
    mean += p.kind == ArrivalKind::kPeriodic
                ? std::max(1.0, std::floor(opts.rate_scale)) * (unscaled + 1)
                : unscaled * opts.rate_scale *
                      (p.kind == ArrivalKind::kBursty ? on / (on + ToSeconds(p.mean_off)) : 1.0);
  }
  return static_cast<size_t>(std::min(1.5 * mean, static_cast<double>(opts.max_events)) + 1024);
}

// Every generator appends *sorted runs* to `out` and records where each run
// starts in `runs`; GenerateTrace then merges them in place. Each pattern
// draws from its own Rng (shared across a periodic pattern's streams).

void GeneratePoisson(const ArrivalPattern& p, const TraceOptions& opts, Rng& rng,
                     std::vector<TraceEvent>& out, std::vector<size_t>& runs) {
  const double rate = p.rate_per_s * opts.rate_scale;
  if (rate <= 0) {
    return;
  }
  runs.push_back(out.size());
  double t = 0;
  const double horizon = ToSeconds(opts.duration);
  while (true) {
    t += rng.Exponential(rate);
    if (t >= horizon) {
      break;
    }
    out.push_back({SimTime{} + FromSeconds(t), p.function});
  }
}

void GeneratePeriodic(const ArrivalPattern& p, const TraceOptions& opts, Rng& rng,
                      std::vector<TraceEvent>& out, std::vector<size_t>& runs) {
  // Scaling a timer workload k-fold = k staggered timer streams. One run per
  // stream — each stream is ascending on its own (jitter < 1 keeps every step
  // positive), the pattern as a whole is not.
  const auto streams = std::max<int>(1, static_cast<int>(opts.rate_scale));
  const double period = 1.0 / p.rate_per_s;
  const double horizon = ToSeconds(opts.duration);
  for (int s = 0; s < streams; ++s) {
    runs.push_back(out.size());
    double t = rng.NextDouble() * period;  // random phase
    while (t < horizon) {
      out.push_back({SimTime{} + FromSeconds(t), p.function});
      double jitter = 1.0 + p.jitter_fraction * (2.0 * rng.NextDouble() - 1.0);
      t += period * jitter;
    }
  }
}

void GenerateBursty(const ArrivalPattern& p, const TraceOptions& opts, Rng& rng,
                    std::vector<TraceEvent>& out, std::vector<size_t>& runs) {
  // ON/OFF Markov-modulated Poisson process.
  const double on_rate = p.rate_per_s * opts.rate_scale;
  const double horizon = ToSeconds(opts.duration);
  runs.push_back(out.size());
  double t = 0;
  bool on = rng.Bernoulli(ToSeconds(p.mean_on) /
                          (ToSeconds(p.mean_on) + ToSeconds(p.mean_off)));
  while (t < horizon) {
    double phase_len = rng.Exponential(1.0 / ToSeconds(on ? p.mean_on : p.mean_off));
    double phase_end = std::min(horizon, t + phase_len);
    if (on && on_rate > 0) {
      double a = t;
      while (true) {
        a += rng.Exponential(on_rate);
        if (a >= phase_end) {
          break;
        }
        out.push_back({SimTime{} + FromSeconds(a), p.function});
      }
    }
    t = phase_end;
    on = !on;
  }
}

}  // namespace

std::vector<TraceEvent> GenerateTrace(const std::vector<ArrivalPattern>& patterns,
                                      const TraceOptions& options) {
  Validate(patterns, options);
  std::vector<TraceEvent> trace;
  trace.reserve(ReserveFor(patterns, options));
  std::vector<size_t> runs;
  for (const ArrivalPattern& p : patterns) {
    Rng rng(HashCombine(options.seed, static_cast<uint64_t>(p.function) + 0x77));
    switch (p.kind) {
      case ArrivalKind::kPoisson:
        GeneratePoisson(p, options, rng, trace, runs);
        break;
      case ArrivalKind::kPeriodic:
        GeneratePeriodic(p, options, rng, trace, runs);
        break;
      case ArrivalKind::kBursty:
        GenerateBursty(p, options, rng, trace, runs);
        break;
    }
  }

  // Merge adjacent runs pairwise, pass after pass, until one remains. The
  // merge is stable, so equal (time, function) keys keep run order.
  const auto before = [](const TraceEvent& a, const TraceEvent& b) {
    return a.time != b.time ? a.time < b.time : a.function < b.function;
  };
  const auto at = [&](size_t i) { return trace.begin() + static_cast<std::ptrdiff_t>(i); };
  runs.push_back(trace.size());  // bounds: run r is [runs[r], runs[r + 1])
  while (runs.size() > 2) {
    size_t kept = 0;
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      if (r + 2 < runs.size()) {
        std::inplace_merge(at(runs[r]), at(runs[r + 1]), at(runs[r + 2]), before);
      }
      runs[kept++] = runs[r];
    }
    runs[kept++] = runs.back();
    runs.resize(kept);
  }

  const size_t total = trace.size();
  if (options.max_events < total) {
    MEDES_LOG(kWarn) << "GenerateTrace: truncating trace to max_events=" << options.max_events
                     << " (dropping " << (total - options.max_events) << " of " << total
                     << " generated arrivals)";
    trace.resize(options.max_events);
    trace.shrink_to_fit();
  }
  return trace;
}

std::vector<size_t> CountPerFunction(const std::vector<TraceEvent>& trace) {
  FunctionId max_id = -1;
  for (const TraceEvent& e : trace) {
    max_id = std::max(max_id, e.function);
  }
  std::vector<size_t> counts(static_cast<size_t>(max_id + 1), 0);
  for (const TraceEvent& e : trace) {
    ++counts[static_cast<size_t>(e.function)];
  }
  return counts;
}

}  // namespace medes
