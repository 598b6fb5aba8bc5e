// Umbrella header for the Medes library.
//
// Medes (EuroSys '22) is a serverless platform that adds a third sandbox
// state — *dedup* — between warm and cold: idle sandboxes are reduced to
// per-page binary patches against similar base pages elsewhere in the
// cluster, found via value-sampled chunk fingerprints, and restored on demand
// with RDMA reads. See DESIGN.md for the module inventory and EXPERIMENTS.md
// for the paper-figure reproductions.
#ifndef MEDES_MEDES_H_
#define MEDES_MEDES_H_

#include "checkpoint/checkpoint.h"          // IWYU pragma: export
#include "chunking/fingerprint.h"           // IWYU pragma: export
#include "chunking/rabin.h"                 // IWYU pragma: export
#include "chunking/redundancy.h"            // IWYU pragma: export
#include "cluster/cluster.h"                // IWYU pragma: export
#include "common/histogram.h"               // IWYU pragma: export
#include "common/logging.h"                 // IWYU pragma: export
#include "common/rng.h"                     // IWYU pragma: export
#include "common/sha1.h"                    // IWYU pragma: export
#include "common/time.h"                    // IWYU pragma: export
#include "controller/medes_controller.h"    // IWYU pragma: export
#include "dedupagent/dedup_agent.h"         // IWYU pragma: export
#include "delta/delta.h"                    // IWYU pragma: export
#include "memstate/image.h"                 // IWYU pragma: export
#include "memstate/library_pool.h"          // IWYU pragma: export
#include "memstate/profiles.h"              // IWYU pragma: export
#include "net/transport.h"                  // IWYU pragma: export
#include "obs/export.h"                     // IWYU pragma: export
#include "obs/metrics.h"                    // IWYU pragma: export
#include "obs/obs.h"                        // IWYU pragma: export
#include "obs/trace.h"                      // IWYU pragma: export
#include "platform/metrics.h"               // IWYU pragma: export
#include "platform/platform.h"              // IWYU pragma: export
#include "policy/keep_alive.h"              // IWYU pragma: export
#include "policy/medes_policy.h"            // IWYU pragma: export
#include "rdma/rdma.h"                      // IWYU pragma: export
#include "registry/fingerprint_registry.h"  // IWYU pragma: export
#include "sim/simulation.h"                 // IWYU pragma: export
#include "workload/trace.h"                 // IWYU pragma: export

#endif  // MEDES_MEDES_H_
