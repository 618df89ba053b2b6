// The end-to-end run: spawn a Release toprr_serve, replay a workload's
// trace against it over TCP, and measure the server from outside.
#ifndef SERVEBENCH_E2E_H_
#define SERVEBENCH_E2E_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "workload.h"

namespace servebench {

/// Address-space cap of the server and of the traced replay's process,
/// so a runaway allocation cannot starve the host.
constexpr uint64_t kAddressSpaceCap = uint64_t{4} << 30;

/// A toprr_serve child process. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it; the child also dies with
/// this process (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  struct Options {
    std::string binary;
    std::string log_path;  // the server's stderr
    uint64_t data_seed = 0;
    bool cache = false;
    std::string data_dir;  // empty: in-memory catalog
    int port = 0;          // 0: an ephemeral port
  };

  /// Spawns the server and waits for a successful Hello handshake.
  /// `setup_seconds` receives the time from spawn to that handshake.
  static std::unique_ptr<ServerProcess> Spawn(const Options& options,
                                              double* setup_seconds,
                                              std::string* error);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  /// Stops the server and returns its last stdout line (the shutdown
  /// summary). False when it did not exit cleanly.
  bool Stop(std::string* last_line);

  /// True once the server has exited on its own (it stays unreaped, so
  /// /proc still holds its final CPU times).
  bool Exited() const;
  /// Reaps an exited server; returns how it ended.
  std::string Reap();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::string pending_;  // stdout bytes read but not yet consumed
};

/// Replaces `to` with a recursive copy of `from`.
bool CopyDirectory(const std::string& from, const std::string& to,
                   std::string* error);

/// Server user+system CPU time in milliseconds, from /proc/<pid>/stat.
bool ReadCpuMs(pid_t pid, double* cpu_ms);
/// Host-wide CPU ticks from /proc/stat: all, and those stolen by the
/// hypervisor for other guests.
struct HostTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
bool ReadHostTicks(HostTicks* ticks);
/// Server peak resident set (VmHWM) in MiB, from /proc/<pid>/status.
bool ReadPeakRssMb(pid_t pid, double* rss_mb);

/// A completed response kept for verification.
struct Sample {
  int connection = 0;
  size_t rpc = 0;   // index into Trace::measured[connection]
  size_t slot = 0;  // query within the RPC
  toprr::serve::ServeResponse response;
};

/// What the writer heard back for one publish.
struct PublishAck {
  uint64_t seq = 0;
  uint64_t id = 0;
  uint64_t live_rows = 0;
  uint64_t physical_rows = 0;
};

struct EndToEndResult {
  std::vector<double> setup_seconds;  // one per spawn
  double window_seconds = 0.0;
  uint64_t attempted = 0;   // queries sent in the window, and failed
                            // warm-up queries
  uint64_t completed = 0;   // kOk responses in the window
  uint64_t rejected = 0;    // kRejectedOverload / kRejectedDraining
  uint64_t non_ok = 0;      // every other non-kOk status
  /// Queries that took the server down on their own (found by re-sending
  /// the batches a crash took down, alone), or whose connection could
  /// not be re-established. Each is counted once.
  uint64_t transport_errors = 0;
  /// "connection c rpc i query s" for each query that took the server
  /// down on its own.
  std::vector<std::string> crashed_queries;
  /// Server crashes that no re-sent query reproduced: each counts as one
  /// failure.
  uint64_t unexplained_crashes = 0;
  /// Completed requests and publishes left untimed because they overlapped
  /// a server restart or the re-sending of a lost batch.
  uint64_t untimed = 0;
  uint64_t cache_hits = 0;
  std::vector<double> latency_ms;    // per completed RPC
  std::vector<double> send_late_ms;  // send time minus due time
  std::vector<double> publish_ms;    // measured publishes, from due
  double cpu_ms = 0.0;  // server CPU over the window
  double rss_mb = 0.0;  // peak VmHWM over the server processes of the run
  /// Share of the host's CPU time the hypervisor gave to other guests
  /// during the window: high values explain slow, noisy runs.
  double host_steal_ratio = 0.0;
  /// How long the window waited after the warm-up for a quiet host.
  double quiet_wait_seconds = 0.0;
  std::vector<Sample> samples;
  /// (seq, id) stamps of every completed response, in arrival order per
  /// connection, and the read-your-writes floor each was sent under.
  struct Stamp {
    int connection;
    uint64_t seq;
    uint64_t id;
    uint64_t floor;
  };
  std::vector<Stamp> stamps;
  /// Acks of the whole publish sequence (Trace::publishes), in order.
  std::vector<PublishAck> publish_acks;
  uint64_t publish_failures = 0;  // failed or non-kOk publish RPCs
  toprr::serve::MutationAck final_info;  // CatalogInfo after all publishes
  bool final_info_ok = false;
  uint64_t base_seq = 0;  // served seq when the window's server came up
  std::string shutdown_line;
  uint64_t server_protocol_errors = 0;
  /// Servers that died and were restarted on the same port (and data
  /// directory).
  std::vector<std::string> server_crashes;
};

struct RunPaths {
  std::string server_binary;
  std::string work_dir;  // per-run scratch directory (inside the checkout)
};

/// Runs the whole end-to-end phase. False (with `error`) when the server
/// could not be started or driven at all; request-level failures are
/// counted in `result` instead.
bool RunEndToEnd(const WorkloadSpec& spec, const Trace& trace,
                 const RunPaths& paths, EndToEndResult* result,
                 std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_E2E_H_
