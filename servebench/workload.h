// The three serve-benchmark workloads and their fixed request traces.
//
// Every request a run sends -- each connection's query boxes, the zipf
// profile set, every publish delta -- is derived from the benchmark seed
// before the server starts. Runs replay these traces in order; nothing is
// drawn at random while the clock runs.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "geom/vec.h"
#include "pref/pref_space.h"

namespace servebench {

// Shared by all workloads: n = 50k IND rows, d = 4, k = 10, sigma = 1%.
// The served table is one fixed dataset (toprr_serve's default generator
// seed); the benchmark seed varies the request traces. A per-seed table
// would make run-to-run spread mostly the spread between tables: the
// k-skyband size, and with it the r-skyband cost, differs from table to
// table.
constexpr uint64_t kDataSeed = 2019;
constexpr size_t kRows = 50000;
constexpr size_t kDim = 4;
constexpr int kK = 10;
constexpr double kSigma = 0.01;

// zipf_cached: Zipf(1.2) over 32 profile boxes on the server's default
// cache grid (toprr_serve --cache_quantum 1/256). The profile set and its
// ranks are fixed (drawn from kProfileSeed), and so are the draws and
// their jitter (the query pool below). A per-seed profile set would make
// the cost per query that of whichever profile ranks first: hit costs
// differ several-fold between profiles.
constexpr uint64_t kProfileSeed = 2019;
constexpr int kProfiles = 32;
constexpr double kZipfS = 1.2;
constexpr double kQuantum = 1.0 / 256.0;
constexpr double kCacheBudgetBytes = 64.0 * 1024 * 1024;

// Every workload queries a fixed pool of boxes (drawn from kQuerySeed);
// the benchmark seed orders the pool and deals it to the connections.
// Every run of a workload thus sends the same queries, so its cost, its
// peak memory and the queries the solver fails on do not change from
// seed to seed: a few i.i.d. boxes cost hundreds of times the median, and
// a run that drew one measured it instead of the workload.
constexpr uint64_t kQuerySeed = 2019;

// The query budget toprr_serve clamps every request to (--max_budget).
constexpr double kServerBudgetSeconds = 10.0;

// Publish deltas: 4 inserted rows and one deleted row each. Every 8th
// publish deletes the row near the all-ones corner that the writer
// inserted 7 publishes earlier -- certainly a k-skyband member -- so
// exactly 1 in 8 publishes forces a full skyband rebuild. The share sits
// away from the 50th and 95th percentiles, so publish_p50_ms lies in the
// incremental mode and publish_p95_ms in the rebuild mode.
constexpr int kInsertsPerPublish = 4;
constexpr int kRebuildEvery = 8;
// churn_durable seeds its data directory with this many publishes (so
// recovery loads a checkpoint and replays a WAL tail) and warms up with
// kWarmPublishes more; the measured publishes start on a rebuild cycle.
constexpr int kSeedPublishes = 24;
constexpr int kWarmPublishes = 8;
constexpr int kCheckpointEvery = 16;
// A publish schedule holds at least this many publishes, so
// publish_p95_ms has ten samples beyond it.
constexpr size_t kMinPublishes = 200;
// The read-only workloads' publish probe: back-to-back publishes after
// the window, twice the minimum, so a passing stall of the host moves its
// percentiles less (at 200, publish_p50_ms spread 0.22 of its median
// between runs).
constexpr size_t kProbePublishes = 400;
// Every run keeps at least this many timed requests, so
// latency_p99_ms has ten samples beyond it.
constexpr size_t kMinTimedRequests = 1000;

enum class Workload { kUniformSolve, kZipfCached, kChurnDurable };

/// The fixed shape of one workload. Client connections stay at <= 3
/// query connections + 1 writer, so client and server together do not
/// oversubscribe a 4-vCPU host.
struct WorkloadSpec {
  Workload workload;
  const char* name;
  bool cache;          // toprr_serve --cache
  bool durable;        // toprr_serve --data_dir, --fsync always
  bool open_loop;      // readers send on a fixed schedule
  int connections;     // query connections
  int batch;           // queries per RPC
  double reader_rate;  // RPCs per second per connection (open loop)
  double publish_rate;  // publishes per second (churn writer)
  int warm_rpcs;        // untimed RPCs per connection before the window
  // Closed loop: the measured trace holds trace_rate * seconds RPCs per
  // connection, replayed once: about --seconds on a 4-vCPU host.
  double trace_rate;
  int sample_every;     // verify every n-th measured RPC per connection
  // The traced run replays every replay_stride-th measured RPC of each
  // connection, at most replay_rpcs of them.
  int replay_stride;
  int replay_rpcs;
};

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

struct Rpc {
  std::vector<toprr::PrefBox> boxes;  // one per query in the batch
  double due = 0.0;  // open loop: seconds after the window opens
};

/// One publish: rows to insert, row ids to delete. `deletes_member`
/// marks the publishes that delete the corner row (full rebuild).
struct PublishDelta {
  std::vector<toprr::Vec> inserts;
  std::vector<uint64_t> deletes;
  bool deletes_member = false;
};

struct Trace {
  uint64_t data_seed = 0;  // toprr_serve --seed: the served dataset
  std::vector<std::vector<Rpc>> warm;      // [connection][rpc], untimed
  std::vector<std::vector<Rpc>> measured;  // [connection][rpc]
  /// The writer's whole publish sequence: seed publishes, warm-up
  /// publishes, then the measured ones (churn_durable); or the publish
  /// probe after the read window (the read-only workloads).
  std::vector<PublishDelta> publishes;
  size_t seed_publishes = 0;
  size_t warm_publishes = 0;
  std::vector<toprr::PrefBox> profiles;  // zipf_cached
};

/// Builds the trace of `spec` for `seed`. `seconds` sets the length of
/// the open-loop schedule and of the closed-loop traces.
Trace BuildTrace(const WorkloadSpec& spec, uint64_t seed, double seconds);

/// The dataset toprr_serve generates for `data_seed`.
toprr::Dataset ServedDataset(uint64_t data_seed);

/// The query the load generator sends for `box`.
toprr::ToprrQuery ClientQuery(const toprr::PrefBox& box);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
