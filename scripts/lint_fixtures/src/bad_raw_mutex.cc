// Fixture: raw standard-library locking primitives outside
// src/common/mutex.h must fire [raw-mutex].
#include <mutex>

namespace medes {

std::mutex raw_mu;

void Touch() {
  std::lock_guard<std::mutex> lock(raw_mu);
}

}  // namespace medes
