// Fixture: the obs layer itself reads the switch; metrics-guard must stay
// silent here, as on mentions in comments such as MetricsEnabled().
#include "obs/obs.h"

namespace medes::obs {

bool Sampling() { return MetricsEnabled(); }

const char* kDoc = "call sites never write if (MetricsEnabled())";

}  // namespace medes::obs
