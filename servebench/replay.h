// In-process checks and the traced replay.
//
// Verify() compares what the server answered with an in-process
// ToprrEngine on the same snapshot. RunTracedReplay() replays a
// workload's trace on one thread, calling each layer's public entry
// point under a span, and checks the decomposed calls reproduce
// ToprrEngine::Solve bit for bit.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "e2e.h"
#include "stats.h"
#include "workload.h"

namespace servebench {

/// Failures found by a check, with the first few described.
struct CheckReport {
  uint64_t checked = 0;   // answers compared
  uint64_t failures = 0;  // answers or invariants that did not hold
  std::vector<std::string> notes;

  void Fail(const std::string& note);
};

/// Checks a finished end-to-end run:
///  * every sampled response equals, bit for bit, the in-process engine's
///    answer on the snapshot the response is stamped with (impact
///    halfspaces, vertices, flags and the snapshot stamp);
///  * every response's stamp names a snapshot the publish sequence made,
///    never older than the last publish acked before it was sent
///    (read-your-writes), and never older than the previous response on
///    the same connection;
///  * every publish was acked exactly once with the expected seq, id and
///    row counts, and the final CatalogInfo matches the last publish.
void Verify(const WorkloadSpec& spec, const Trace& trace,
            const EndToEndResult& run, CheckReport* report);

struct ReplayOutput {
  MetricTable metrics;
  double mean_solve_us = 0.0;  // engine solve time per replayed query
  CheckReport report;
  /// Replayed requests that crashed the solver and were left out.
  std::vector<uint32_t> crashed_requests;
};

/// The traced replay. Writes its spans to `spans_path` (JSON lines) and
/// uses `work_dir` for its data directories. False (with `error`) when
/// the replay could not run at all.
bool RunTracedReplay(const WorkloadSpec& spec, const Trace& trace,
                     const EndToEndResult& run, const std::string& work_dir,
                     const std::string& spans_path, ReplayOutput* out,
                     std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
