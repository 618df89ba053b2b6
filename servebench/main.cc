// servebench: the serve benchmark's measuring program.
//
//   servebench --workload uniform_solve --seed 1 --seconds 15
//       --trace 0 --server <toprr_serve binary> --work_dir <scratch dir>
//
// Runs one workload against a freshly spawned toprr_serve, checks the
// answers, and (with --trace 1) runs the traced in-process replay. Prints
// each metric as a "name value unit" line, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any check fails, 2 on a usage or set-up error. servebench/run.py builds
// this program and is the entry point.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "e2e.h"
#include "replay.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace servebench;

// A window in which the hypervisor gave more than kRetrySteal of the
// host's CPU to other guests is measured again, from a fresh server, as
// long as another attempt is expected to end within kAttemptBudget times
// --seconds of the run's start; the quietest window is reported. Steal
// comes in episodes of a minute or so: at 9-21 % steal, churn_durable's
// publish_p50_ms read 1.7-3.8 ms against 1.15-1.32 ms at under 4.5 %,
// and at 1.5-3.5 % zipf_cached's cpu_ms_per_query read 0.75-0.83 ms
// against 0.63-0.74 ms below 1 %.
constexpr double kRetrySteal = 0.02;
constexpr double kAttemptBudget = 4.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
  std::string server;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    std::string value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (name == "--workload") {
      args->workload = value;
    } else if (name == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (name == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (name == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (name == "--server") {
      args->server = value;
    } else if (name == "--work_dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) && !args->server.empty() &&
         !args->work_dir.empty();
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const MetricTable& table) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, metric] : table.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void PrintNotes(const char* what, const CheckReport& report) {
  std::printf("check %s: %llu compared, %llu failed\n", what,
              static_cast<unsigned long long>(report.checked),
              static_cast<unsigned long long>(report.failures));
  for (const std::string& note : report.notes) {
    std::printf("  FAIL %s\n", note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "servebench: refusing to measure an unoptimised "
                       "build\n");
  return 2;
#endif
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --server PATH --work_dir DIR\n");
    return 2;
  }
  toprr::GlobalLogLevel() = toprr::LogLevel::kWarning;
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  const Trace trace = BuildTrace(spec, args.seed, args.seconds);
  EndToEndResult run;
  std::string error;
  const Clock::time_point began = Clock::now();
  for (int attempt = 1;; ++attempt) {
    const Clock::time_point attempt_start = Clock::now();
    EndToEndResult candidate;
    if (!RunEndToEnd(spec, trace, RunPaths{args.server, args.work_dir},
                     &candidate, &error)) {
      std::fprintf(stderr, "servebench: %s\n", error.c_str());
      return 2;
    }
    std::printf("attempt %d: host steal %.4f over a %.3f s window\n", attempt,
                candidate.host_steal_ratio, candidate.window_seconds);
    if (attempt == 1 || candidate.host_steal_ratio < run.host_steal_ratio) {
      run = std::move(candidate);
    }
    const Clock::time_point now = Clock::now();
    if (run.host_steal_ratio <= kRetrySteal ||
        SecondsBetween(began, now) + SecondsBetween(attempt_start, now) >
            kAttemptBudget * args.seconds) {
      break;
    }
  }
  CheckReport verify;
  Verify(spec, trace, run, &verify);
  // Every reported percentile needs ten samples beyond it.
  if (!PercentileSupported(run.latency_ms.size(), 0.99)) {
    verify.Fail("too few timed requests for latency_p99_ms");
  }
  if (!PercentileSupported(run.publish_ms.size(), 0.95)) {
    verify.Fail("too few publishes for publish_p95_ms");
  }
  if (run.server_protocol_errors != 0) {
    verify.Fail("the server counted " +
                std::to_string(run.server_protocol_errors) +
                " protocol errors");
  }

  const double completed = static_cast<double>(run.completed);
  const uint64_t attempted = run.attempted + run.publish_ms.size() +
                             run.publish_failures;
  uint64_t failed = run.transport_errors + run.unexplained_crashes +
                    run.rejected + run.non_ok + run.publish_failures +
                    verify.failures;
  std::printf("servebench: workload=%s seed=%llu seconds=%g trace=%d "
              "window=%.3fs completed=%llu attempted=%llu cache_hits=%llu\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, run.window_seconds,
              static_cast<unsigned long long>(run.completed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(run.cache_hits));
  std::printf("server: %s\n", run.shutdown_line.c_str());
  for (const std::string& crash : run.server_crashes) {
    std::printf("FAIL server crashed (%s) and was restarted; see the "
                "server log in the work directory\n",
                crash.c_str());
  }
  for (const std::string& query : run.crashed_queries) {
    std::printf("FAIL %s took the server down on its own\n", query.c_str());
  }
  if (run.unexplained_crashes > 0) {
    std::printf("FAIL %llu server crashes that no re-sent query reproduced\n",
                static_cast<unsigned long long>(run.unexplained_crashes));
  }
  if (run.untimed > 0) {
    std::printf("untimed: %llu completed requests and publishes overlapped "
                "a server restart\n",
                static_cast<unsigned long long>(run.untimed));
  }
  PrintNotes("answers", verify);

  MetricTable e2e;
  e2e.Set("qps", completed / run.window_seconds, "1/s");
  e2e.Set("latency_p50_ms", Percentile(run.latency_ms, 0.5), "ms");
  e2e.Set("latency_p99_ms", Percentile(run.latency_ms, 0.99), "ms");
  e2e.Set("cpu_ms_per_query", completed > 0 ? run.cpu_ms / completed : 0.0,
          "ms");
  e2e.Set("publish_p50_ms", Percentile(run.publish_ms, 0.5), "ms");
  e2e.Set("publish_p95_ms", Percentile(run.publish_ms, 0.95), "ms");
  e2e.Set("setup_s", Percentile(run.setup_seconds, 0.5), "s");
  e2e.Set("rss_mb", run.rss_mb, "MiB");

  MetricTable* reported = &e2e;
  MetricTable layers;
  CheckReport replay_report;
  if (args.trace == 1) {
    ReplayOutput replay;
    if (!RunTracedReplay(spec, trace, run, args.work_dir,
                         args.work_dir + "/spans.jsonl", &replay, &error)) {
      std::fprintf(stderr, "servebench: %s\n", error.c_str());
      return 2;
    }
    replay_report = replay.report;
    PrintNotes("traced replay", replay_report);
    for (const uint32_t request : replay.crashed_requests) {
      std::printf("FAIL replayed request %u crashed the solver and was "
                  "left out\n",
                  request);
    }
    failed += replay_report.failures + replay.crashed_requests.size();
    layers = replay.metrics;
    layers.Set("serve.overhead_cpu_us",
               e2e.metrics().at("cpu_ms_per_query").value * 1e3 -
                   replay.mean_solve_us,
               "us");
    layers.Set("serve.rejected_ratio",
               attempted > 0 ? static_cast<double>(run.rejected) /
                                   static_cast<double>(run.attempted)
                             : 0.0,
               "ratio");
    layers.Set("bench.send_late_p99_ms", Percentile(run.send_late_ms, 0.99),
               "ms");
    layers.Set("bench.host_steal_ratio", run.host_steal_ratio, "ratio");
    layers.Set("bench.quiet_wait_s", run.quiet_wait_seconds, "s");
    reported = &layers;
  }

  for (const MetricTable* table : {&e2e, &layers}) {
    for (const auto& [name, metric] : table->metrics()) {
      std::printf("%-34s %16.6f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("%-34s %16.6f ratio\n", "failed_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  if (args.trace == 0) {
    std::printf("%-34s %16.6f ratio\n", "bench.host_steal_ratio",
                run.host_steal_ratio);
    std::printf("%-34s %16.6f s\n", "bench.quiet_wait_s",
                run.quiet_wait_seconds);
  }
  const bool correct = verify.failures == 0 && replay_report.failures == 0;
  std::fflush(stdout);
  PrintJson(correct, attempted, failed, *reported);
  return correct ? 0 : 1;
}
