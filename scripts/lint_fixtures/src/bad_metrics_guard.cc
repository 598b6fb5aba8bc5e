// Fixture: a call-site metrics guard outside src/obs/ must fire
// [metrics-guard].
#include "obs/metrics.h"

namespace medes {

void RecordHit(uint64_t& hits, obs::Counter& series) {
  ++hits;
  if (obs::MetricsEnabled()) {
    series.Add(1);
  }
}

}  // namespace medes
