// Fixture: a library environment knob outside the files that own the
// knobs must fire [env-knob].
#include <cstdlib>

namespace medes {

bool ForceSlowPath() { return std::getenv("MEDES_FORCE_SLOW_PATH") != nullptr; }

}  // namespace medes
