// Figure 8: trade-off between the four fast-filtering alternatives of
// Sec. 6.3 -- k-skyband, k-onion layers, r-skyband, exact UTK -- measured
// as retained candidate count |D'| vs computation time at the default
// parameter point (IND data).
//
// The paper's chart normalizes both axes by the maximum; we report the
// raw values as counters (retained, sec_per_query) from which the
// normalized chart follows.
//
// The fig8/r_skyband_engine pair times the engine path's per-query filter
// -- RSkybandVertices over the cached k-skyband at the default point, on
// the box corners as a served query supplies them -- once through the
// reference scan (every candidate checked pairwise) and once through the
// library's interval-bounded scan, on the same boxes. The bounded point
// reports `speedup_vs_scan` and `equal` (1 when every query returned the
// reference ids); CI gates both (ci/check_bench_smoke.py --rskyband).
#include <algorithm>

#include "bench/bench_common.h"
#include "core/utk_filter.h"
#include "tests/rskyband_reference.h"
#include "topk/onion.h"
#include "topk/rskyband.h"
#include "topk/skyband.h"

namespace toprr {
namespace bench {
namespace {

enum class Filter { kSkyband, kOnion, kRSkyband, kUtk };

void RunFilter(::benchmark::State& state, Filter filter) {
  const BenchConfig& config = GlobalConfig();
  // Onion layers recompute d-dimensional hulls per layer; cap the input
  // size so the bench finishes (the paper's chart likewise shows onion as
  // the slowest filter).
  const size_t n = filter == Filter::kOnion
                       ? std::min<size_t>(config.default_n(), 20000)
                       : config.default_n();
  const Dataset& data = CachedSynthetic(
      n, config.default_d(), Distribution::kIndependent, config.seed);
  const int k = config.default_k();
  Rng rng(config.seed + 17);

  for (auto _ : state) {
    double total_seconds = 0.0;
    double total_retained = 0.0;
    for (int q = 0; q < config.queries; ++q) {
      const PrefBox box =
          RandomPrefBox(data.dim() - 1, config.default_sigma(), rng);
      Timer timer;
      size_t retained = 0;
      switch (filter) {
        case Filter::kSkyband:
          retained = SortBasedKSkyband(data, k).size();
          break;
        case Filter::kOnion:
          retained = OnionLayers(data, k).size();
          break;
        case Filter::kRSkyband:
          retained = RSkyband(data, box, k).size();
          break;
        case Filter::kUtk:
          retained =
              ExactTopkUnion(data, box, k, config.budget_seconds).size();
          break;
      }
      total_seconds += timer.Seconds();
      total_retained += static_cast<double>(retained);
    }
    state.counters["retained"] = total_retained / config.queries;
    state.counters["sec_per_query"] = total_seconds / config.queries;
    state.SetIterationTime(total_seconds / config.queries);
  }
}

// Boxes per timed round of the engine-path pair, and rounds per point.
constexpr int kEngineBoxes = 64;
constexpr int kEngineRounds = 5;

// Reference-scan seconds per query, written by the scan point (registered
// first) and read by the bounded point.
double& ReferenceSecondsPerQuery() {
  static double seconds = 0.0;
  return seconds;
}

void RunEngineFilter(::benchmark::State& state, bool bounded) {
  const BenchConfig& config = GlobalConfig();
  const Dataset& data =
      CachedSynthetic(config.default_n(), config.default_d(),
                      Distribution::kIndependent, config.seed);
  const int k = config.default_k();
  const std::vector<int> skyband = SortBasedKSkyband(data, k);
  Rng rng(config.seed + 29);
  std::vector<std::vector<Vec>> corners;
  for (int q = 0; q < kEngineBoxes; ++q) {
    corners.push_back(
        RandomPrefBox(data.dim() - 1, config.default_sigma(), rng)
            .Vertices());
  }

  double best_seconds = 0.0;
  bool equal = true;
  double retained = 0.0;
  for (auto _ : state) {
    // The fastest of several rounds: the pair is compared on its least
    // disturbed run.
    for (int round = 0; round < kEngineRounds; ++round) {
      Timer timer;
      retained = 0.0;
      for (const std::vector<Vec>& vertices : corners) {
        const std::vector<int> ids =
            bounded ? RSkybandVertices(data, vertices, k, &skyband)
                    : reference::RSkybandVertices(data, vertices, k, skyband);
        retained += static_cast<double>(ids.size());
        ::benchmark::DoNotOptimize(ids.data());
      }
      const double seconds = timer.Seconds();
      if (round == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    state.SetIterationTime(best_seconds / kEngineBoxes);
  }
  if (bounded) {
    // Untimed: the ids must be the reference scan's, query by query.
    for (const std::vector<Vec>& vertices : corners) {
      equal = equal &&
              RSkybandVertices(data, vertices, k, &skyband) ==
                  reference::RSkybandVertices(data, vertices, k, skyband);
    }
  }
  const double per_query = best_seconds / kEngineBoxes;
  state.counters["pool"] = static_cast<double>(skyband.size());
  state.counters["retained"] = retained / kEngineBoxes;
  state.counters["sec_per_query"] = per_query;
  if (!bounded) {
    ReferenceSecondsPerQuery() = per_query;
  } else {
    state.counters["equal"] = equal ? 1.0 : 0.0;
    if (ReferenceSecondsPerQuery() > 0.0 && per_query > 0.0) {
      state.counters["speedup_vs_scan"] =
          ReferenceSecondsPerQuery() / per_query;
    }
  }
}

void RegisterAll() {
  const struct {
    Filter filter;
    const char* name;
  } filters[] = {{Filter::kSkyband, "k_skyband"},
                 {Filter::kOnion, "k_onion_layers"},
                 {Filter::kRSkyband, "r_skyband"},
                 {Filter::kUtk, "UTK"}};
  for (const auto& f : filters) {
    ::benchmark::RegisterBenchmark(
        (std::string("fig8/") + f.name).c_str(),
        [f](::benchmark::State& state) { RunFilter(state, f.filter); })
        ->Iterations(1)
        ->UseManualTime();
  }
  for (const bool bounded : {false, true}) {
    ::benchmark::RegisterBenchmark(
        bounded ? "fig8/r_skyband_engine/bounded"
                : "fig8/r_skyband_engine/scan",
        [bounded](::benchmark::State& state) {
          RunEngineFilter(state, bounded);
        })
        ->Iterations(1)
        ->UseManualTime();
  }
}

}  // namespace
}  // namespace bench
}  // namespace toprr

int main(int argc, char** argv) {
  if (!toprr::bench::ParseBenchFlags(&argc, argv)) return 1;
  toprr::bench::RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
