#include "e2e.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "serve/client.h"
#include "stats.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using toprr::ToprrQuery;
using toprr::serve::MutationAck;
using toprr::serve::MutationStatus;
using toprr::serve::ServeResponse;
using toprr::serve::ServeStatus;
using toprr::serve::ToprrClient;

// Spawns per run: setup_s is their median. The last one serves the run.
constexpr int kSetupSpawns = 7;
constexpr double kSpawnTimeoutSeconds = 60.0;
// Spawns tried when restarting a server that died.
constexpr int kRestartSpawns = 5;
constexpr double kStopGraceSeconds = 20.0;
constexpr int kReconnectSeconds = 30;
// The supervisor wakes every 2 ms; it reads the server's VmHWM and the
// host's CPU ticks every kSlowPollEvery wake-ups.
constexpr int kSlowPollEvery = 50;
// The window opens once the hypervisor took at most kQuietSteal of the
// host's CPU time over the last kQuietSeconds, or kMaxQuietWaitSeconds
// after the warm-up, whichever comes first. Runs on a host whose
// neighbours steal 5-10 % of its CPU measured up to 50 % higher latency.
// The wait is short: a window that turns out noisy is measured again
// (main.cc), which helps more than waiting longer before it.
constexpr double kQuietSteal = 0.015;
constexpr double kQuietSeconds = 2.0;
constexpr double kMaxQuietWaitSeconds = 4.0;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Reads one '\n'-terminated line from `fd` into `line`, buffering the rest
// in `pending`. False on EOF, error or when `deadline` passes.
bool ReadLine(int fd, std::string* pending, Clock::time_point deadline,
              std::string* line) {
  for (;;) {
    const size_t eol = pending->find('\n');
    if (eol != std::string::npos) {
      *line = pending->substr(0, eol);
      pending->erase(0, eol + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char buf[4096];
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    pending->append(buf, static_cast<size_t>(got));
  }
}

// Full precision: the server's cache grid must equal kQuantum exactly.
std::string Exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<std::string> ServerArgs(const ServerProcess::Options& options) {
  std::vector<std::string> args = {
      options.binary,
      "--port=" + std::to_string(options.port),
      "--n=" + std::to_string(kRows),
      "--d=" + std::to_string(kDim),
      "--seed=" + std::to_string(options.data_seed),
      "--warm_k=" + std::to_string(kK),
      "--max_budget=" + Exact(kServerBudgetSeconds),
      "--batch_threads=1",
      "--log=warning",
  };
  if (options.cache) {
    args.push_back("--cache=true");
    args.push_back("--cache_quantum=" + Exact(kQuantum));
    args.push_back("--cache_budget_mb=" +
                   Exact(kCacheBudgetBytes / (1024.0 * 1024.0)));
  }
  if (!options.data_dir.empty()) {
    // Flush policy, stated once and identical on every commit: an fsync
    // per publish, a checkpoint every kCheckpointEvery publishes.
    args.push_back("--data_dir=" + options.data_dir);
    args.push_back("--fsync=always");
    args.push_back("--checkpoint_every=" + std::to_string(kCheckpointEvery));
  }
  return args;
}

// True once `pid` has a handler for SIGTERM (the SigCgt mask of
// /proc/<pid>/status).
bool CatchesSigterm(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) == 0) {
      const unsigned long long mask =
          std::strtoull(line.c_str() + 7, nullptr, 16);
      return (mask >> (SIGTERM - 1)) & 1;
    }
  }
  return false;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Spawn(const Options& options,
                                                    double* setup_seconds,
                                                    std::string* error) {
  const std::vector<std::string> args = ServerArgs(options);
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const int log_fd = ::open(options.log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    *error = "cannot open " + options.log_path;
    return nullptr;
  }
  const Clock::time_point start = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
    ::setrlimit(RLIMIT_AS, &cap);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(pipe_fds[0]);
    *error = "fork failed";
    return nullptr;
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdout_fd_ = pipe_fds[0];

  // The server prints this line once it accepts connections; readiness is
  // then proven by a real Hello (a bare TCP probe counts as a protocol
  // error on the server).
  const std::string marker = "toprr_serve: listening on ";
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kSpawnTimeoutSeconds));
  std::string line;
  while (server->port_ == 0) {
    if (!ReadLine(server->stdout_fd_, &server->pending_, deadline, &line)) {
      *error = "server exited or stalled before listening (see " +
               options.log_path + ")";
      return nullptr;
    }
    if (line.rfind(marker, 0) != 0) continue;
    const size_t colon = line.find(':', marker.size());
    if (colon != std::string::npos) {
      server->port_ = std::atoi(line.c_str() + colon + 1);
    }
    if (server->port_ <= 0) {
      *error = "cannot parse the listening line: " + line;
      return nullptr;
    }
  }
  ToprrClient hello;
  if (!hello.Connect("127.0.0.1", server->port_)) {
    *error = "Hello handshake failed: " + hello.last_error();
    return nullptr;
  }
  *setup_seconds = SecondsBetween(start, Clock::now());
  return server;
}

bool ServerProcess::Stop(std::string* last_line) {
  if (pid_ <= 0) return false;
  // toprr_serve installs its SIGTERM handler just after it starts
  // listening; a SIGTERM before that would kill it outright.
  const Clock::time_point handler_deadline =
      Clock::now() + std::chrono::seconds(5);
  while (!CatchesSigterm(pid_) && Clock::now() < handler_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kStopGraceSeconds));
  while (Clock::now() < give_up) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  std::string line;
  std::string last;
  while (ReadLine(stdout_fd_, &pending_, Clock::now() + std::chrono::seconds(1),
                  &line)) {
    last = line;
  }
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (last_line != nullptr) *last_line = last;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool ServerProcess::Exited() const {
  siginfo_t info{};
  return pid_ > 0 &&
         ::waitid(P_PID, pid_, &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
         info.si_pid == pid_;
}

std::string ServerProcess::Reap() {
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  return "exited with status " + std::to_string(WEXITSTATUS(status));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(nullptr);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ReadCpuMs(pid_t pid, double* cpu_ms) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3
  // (state); utime and stime are fields 14 and 15.
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return false;
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return false;
  *cpu_ms = static_cast<double>(utime + stime) * 1e3 /
            static_cast<double>(ticks);
  return true;
}

bool CopyDirectory(const std::string& from, const std::string& to,
                   std::string* error) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) *error = "cannot copy " + from + ": " + ec.message();
  return !ec;
}

bool ReadHostTicks(HostTicks* ticks) {
  // The aggregate "cpu" line: user nice system idle iowait irq softirq
  // steal ...
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return false;
  *ticks = HostTicks{};
  unsigned long long value = 0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    ticks->total += value;
    if (field == 7) ticks->steal = value;
  }
  return in.good();
}

bool ReadPeakRssMb(pid_t pid, double* rss_mb) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      *rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      return true;
    }
  }
  return false;
}

namespace {

// True when the ticks span kQuietSeconds with little steal in them.
bool HostQuiet(
    const std::deque<std::pair<Clock::time_point, HostTicks>>& ticks) {
  if (ticks.size() < 2 ||
      SecondsBetween(ticks.front().first, ticks.back().first) <
          kQuietSeconds * 0.9) {
    return false;
  }
  const HostTicks& first = ticks.front().second;
  const HostTicks& last = ticks.back().second;
  const double total = static_cast<double>(last.total - first.total);
  return total > 0.0 &&
         static_cast<double>(last.steal - first.steal) <= kQuietSteal * total;
}

// Opens the measured window once every worker has warmed up and the
// coordinator sees the host quiet. Readers keep warming up while they
// wait, so the host stays under load while its steal is watched.
class StartGate {
 public:
  explicit StartGate(int workers) : waiting_for_(workers) {}

  // Marks a worker's warm-up as done.
  void Arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    --waiting_for_;
  }

  bool AllArrived() {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_for_ <= 0;
  }

  bool IsOpen() {
    std::lock_guard<std::mutex> lock(mu_);
    return opened_;
  }

  // Blocks until the window opens; returns its start.
  Clock::time_point WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return opened_; });
    return start_;
  }

  // Called by the coordinator: opens the window.
  Clock::time_point Open() {
    std::lock_guard<std::mutex> lock(mu_);
    start_ = Clock::now();
    opened_ = true;
    cv_.notify_all();
    return start_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_for_;
  bool opened_ = false;
  Clock::time_point start_;
};

// Lets the readers send side by side, or one of them alone. A batch a
// server crash took down is re-sent alone, so only a query that takes
// the server down on its own counts as failed -- not the batches of the
// other connections that went down with it, whose number depends on
// timing. A reader waiting to go alone holds back new shared sends.
class SoloGate {
 public:
  void EnterShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !solo_ && solo_waiting_ == 0; });
    ++shared_;
  }

  void ExitShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--shared_ == 0) cv_.notify_all();
  }

  void EnterSolo() {
    std::unique_lock<std::mutex> lock(mu_);
    ++solo_waiting_;
    cv_.wait(lock, [this] { return !solo_ && shared_ == 0; });
    --solo_waiting_;
    solo_ = true;
  }

  void ExitSolo() {
    std::lock_guard<std::mutex> lock(mu_);
    solo_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int shared_ = 0;
  int solo_waiting_ = 0;
  bool solo_ = false;
};

// The spans during which the server was down or a lost batch was being
// re-sent alone. Requests and publishes that overlap one still count as
// completed but are not timed: their latency would measure the restart.
// A span in which the server died but no re-sent query took it down
// again is an unexplained crash.
class OutageTracker {
 public:
  // Opened by the supervisor when the server died (`crash`), and by each
  // reader re-sending a lost batch.
  void Begin(bool crash = false) {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_++ == 0) {
      begin_ = Clock::now();
      crashed_ = false;
      explained_ = false;
    }
    crashed_ = crashed_ || crash;
  }

  // A re-sent query took the server down on its own.
  void Explain() {
    std::lock_guard<std::mutex> lock(mu_);
    explained_ = true;
  }

  void End() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--open_ > 0) return;
    spans_.emplace_back(begin_, Clock::now());
    if (crashed_ && !explained_) ++unexplained_;
  }

  uint64_t unexplained() {
    std::lock_guard<std::mutex> lock(mu_);
    return unexplained_;
  }

  bool Overlaps(Clock::time_point from, Clock::time_point to) {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_ > 0 && to >= begin_) return true;
    return std::any_of(spans_.begin(), spans_.end(), [&](const auto& span) {
      return span.first <= to && from <= span.second;
    });
  }

 private:
  std::mutex mu_;
  int open_ = 0;
  bool crashed_ = false;
  bool explained_ = false;
  uint64_t unexplained_ = 0;
  Clock::time_point begin_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans_;
};

// Per-connection tallies, merged into EndToEndResult after the join.
struct ReaderTally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t non_ok = 0;
  uint64_t transport_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t untimed = 0;
  std::vector<double> latency_ms;
  std::vector<double> send_late_ms;
  std::vector<Sample> samples;
  std::vector<EndToEndResult::Stamp> stamps;
  std::vector<std::string> crashed_queries;
  Clock::time_point end;
};

std::vector<ToprrQuery> QueriesOf(const Rpc& rpc) {
  std::vector<ToprrQuery> queries;
  for (const toprr::PrefBox& box : rpc.boxes) {
    queries.push_back(ClientQuery(box));
  }
  return queries;
}

struct Reader {
  const WorkloadSpec* spec;
  int connection;
  int port;
  const std::vector<std::vector<ToprrQuery>>* warm;
  const std::vector<std::vector<ToprrQuery>>* measured;
  const std::vector<Rpc>* measured_rpcs;
  StartGate* gate;
  SoloGate* solo;
  OutageTracker* outage;
  const std::atomic<uint64_t>* acked_seq;  // read-your-writes floor
  ReaderTally tally;
  // Queries found to take the server down, as (RPC, slot): the cycled
  // warm-up sends them only once.
  std::set<std::pair<const std::vector<ToprrQuery>*, size_t>> crashers;

  // Reconnects, waiting out a server restart.
  bool Reconnect(ToprrClient& client) {
    const Clock::time_point give_up =
        Clock::now() + std::chrono::seconds(kReconnectSeconds);
    while (!client.Connect("127.0.0.1", port)) {
      if (Clock::now() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  // Re-sends a batch a failed RPC lost, alone on the server: the whole
  // batch, then -- if it takes the server down again -- each query on its
  // own. Slots that take the server down on their own stay empty. False
  // when the server cannot be reached again.
  bool Isolate(ToprrClient& client, const std::vector<ToprrQuery>& batch,
               std::vector<std::optional<ServeResponse>>* out) {
    solo->EnterSolo();
    out->assign(batch.size(), std::nullopt);
    bool reachable = Reconnect(client);
    std::optional<std::vector<ServeResponse>> whole;
    if (reachable) whole = client.QueryBatch(batch);
    if (whole.has_value() && whole->size() == batch.size()) {
      for (size_t slot = 0; slot < batch.size(); ++slot) {
        (*out)[slot] = std::move((*whole)[slot]);
      }
    } else if (reachable) {
      reachable = Reconnect(client);
      for (size_t slot = 0; reachable && batch.size() > 1 &&
                            slot < batch.size();
           ++slot) {
        std::optional<std::vector<ServeResponse>> one =
            client.QueryBatch({batch[slot]});
        if (one.has_value() && one->size() == 1) {
          (*out)[slot] = std::move((*one)[0]);
        } else {
          reachable = Reconnect(client);
        }
      }
    }
    solo->ExitSolo();
    return reachable;
  }

  // One RPC: `queries` minus those already found to take the server down.
  // Returns false when the connection is lost and cannot be
  // re-established. `sequence` numbers the timed RPCs of this connection
  // (every sample_every-th is kept for verification); `trace_index`
  // locates the RPC in the trace. Open-loop RPCs are timed from when they
  // were due, closed-loop ones from when they were sent.
  bool Send(ToprrClient& client, const std::vector<ToprrQuery>& queries,
            bool timed, size_t sequence, size_t trace_index,
            Clock::time_point due) {
    std::vector<size_t> slots;
    std::vector<ToprrQuery> batch;
    for (size_t slot = 0; slot < queries.size(); ++slot) {
      if (crashers.count({&queries, slot}) != 0) continue;
      slots.push_back(slot);
      batch.push_back(queries[slot]);
    }
    if (batch.empty()) return true;
    const uint64_t floor = acked_seq->load(std::memory_order_acquire);
    solo->EnterShared();
    const Clock::time_point sent = Clock::now();
    std::optional<std::vector<ServeResponse>> responses =
        client.QueryBatch(batch);
    const Clock::time_point done = Clock::now();
    solo->ExitShared();

    std::vector<std::optional<ServeResponse>> answers(batch.size());
    bool lost = !responses.has_value() || responses->size() != batch.size();
    bool alive = true;
    if (lost) {
      outage->Begin();
      alive = Isolate(client, batch, &answers);
      for (const auto& answer : answers) {
        if (alive && !answer.has_value()) outage->Explain();
      }
      outage->End();
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        answers[i] = std::move((*responses)[i]);
      }
    }
    for (size_t i = 0; alive && i < batch.size(); ++i) {
      if (answers[i].has_value()) continue;
      // Took the server down on its own: failed, and never sent again.
      crashers.insert({&queries, slots[i]});
      tally.crashed_queries.push_back(
          "connection " + std::to_string(connection) +
          (timed ? " rpc " : " warm-up rpc ") + std::to_string(trace_index) +
          " query " + std::to_string(slots[i]));
      ++tally.attempted;
      ++tally.transport_errors;
    }
    if (!alive) {
      tally.attempted += batch.size();
      tally.transport_errors += batch.size();
      return false;
    }
    if (!timed) return true;

    tally.send_late_ms.push_back(Ms(sent - due));
    bool all_ok = true;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!answers[i].has_value()) {
        all_ok = false;
        continue;
      }
      ServeResponse& response = *answers[i];
      tally.attempted += 1;
      switch (response.status) {
        case ServeStatus::kOk:
          ++tally.completed;
          tally.stamps.push_back(EndToEndResult::Stamp{
              connection, response.snapshot_seq, response.snapshot_id,
              floor});
          if (response.stats.cache_lookup ==
              static_cast<uint8_t>(toprr::serve::CacheLookup::kHit)) {
            ++tally.cache_hits;
          }
          break;
        case ServeStatus::kRejectedOverload:
        case ServeStatus::kRejectedDraining:
          ++tally.rejected;
          all_ok = false;
          break;
        default:
          ++tally.non_ok;
          all_ok = false;
          break;
      }
    }
    // Rejected or failed RPCs are counted, never timed; nor is an RPC
    // that a restart or a re-send delayed.
    const Clock::time_point from = spec->open_loop ? due : sent;
    if (all_ok && !lost && !outage->Overlaps(from, done)) {
      tally.latency_ms.push_back(Ms(done - from));
    } else if (all_ok) {
      ++tally.untimed;
    }
    if (sequence % spec->sample_every == 0) {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!answers[i].has_value() || answers[i]->status != ServeStatus::kOk) {
          continue;
        }
        tally.samples.push_back(Sample{connection, trace_index, slots[i],
                                       std::move(*answers[i])});
      }
    }
    return true;
  }

  void Run() {
    ToprrClient client;
    bool alive = client.Connect("127.0.0.1", port);
    // The warm-up trace once, then cycled until the window opens.
    for (size_t i = 0; alive; ++i) {
      if (i == warm->size()) gate->Arrive();
      if (i >= warm->size() && gate->IsOpen()) break;
      alive = Send(client, (*warm)[i % warm->size()], false, 0,
                   i % warm->size(), Clock::now());
    }
    if (!alive) gate->Arrive();
    const Clock::time_point start = gate->WaitOpen();
    tally.end = start;
    if (!alive) return;
    if (spec->open_loop) {
      // Every request is timed from when it was due, so a stall also
      // charges the requests queued behind it.
      for (size_t i = 0; i < measured->size() && alive; ++i) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            (*measured_rpcs)[i].due));
        std::this_thread::sleep_until(due);
        alive = Send(client, (*measured)[i], true, i, i, due);
      }
    } else {
      // Closed loop over the whole trace, once. A closed-loop request is
      // due when the previous one completed.
      Clock::time_point due = start;
      for (size_t i = 0; alive && i < measured->size(); ++i) {
        alive = Send(client, (*measured)[i], true, i, i, due);
        due = Clock::now();
      }
    }
    tally.end = Clock::now();
  }
};

// Stages one publish's rows and deletes in the session of `client`.
// False after a failed or rejected RPC (counted by the caller).
bool StageDelta(ToprrClient& client, const PublishDelta& delta) {
  std::optional<MutationAck> ack = client.StageInsert(delta.inserts);
  if (!ack.has_value() || ack->status != MutationStatus::kOk) return false;
  if (!delta.deletes.empty()) {
    ack = client.StageDelete(delta.deletes);
    if (!ack.has_value() || ack->status != MutationStatus::kOk) return false;
  }
  return true;
}

// Publishes what the session of `client` has staged. Returns the ack, or
// nullopt after a failed or rejected RPC (counted by the caller).
std::optional<MutationAck> PublishStaged(ToprrClient& client) {
  // After a server restart the client's retry re-sends a publish whose
  // ack was lost; already_applied then carries the original ack.
  std::optional<MutationAck> ack = client.Publish();
  if (!ack.has_value() || ack->status != MutationStatus::kOk) return {};
  return ack;
}

PublishAck AckOf(const MutationAck& ack) {
  return PublishAck{ack.snapshot_seq, ack.snapshot_id, ack.live_rows,
                    ack.physical_rows};
}

// The writer: publishes [begin, end) of the trace. Each delta is staged
// untimed ahead of its publish, so the timed part is the Publish RPC --
// the WAL append, the catalog publish and the engine's snapshot update
// -- not two more round trips. With `start` set, each publish is due
// `i / publish_rate` seconds after it (open loop) and timed from then;
// otherwise publishes go back to back, each timed from its send.
// Publishes that overlap an outage are not timed.
void RunPublishes(const WorkloadSpec& spec, const Trace& trace, size_t begin,
                  size_t end, ToprrClient& client,
                  const Clock::time_point* start,
                  std::atomic<uint64_t>* acked_seq, EndToEndResult* result,
                  std::vector<double>* latency_ms,
                  OutageTracker* outage = nullptr) {
  for (size_t p = begin; p < end; ++p) {
    const bool staged = StageDelta(client, trace.publishes[p]);
    Clock::time_point due = Clock::now();
    if (start != nullptr) {
      due = *start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(p - begin) /
                             spec.publish_rate));
      std::this_thread::sleep_until(due);
    }
    const std::optional<MutationAck> ack =
        staged ? PublishStaged(client) : std::nullopt;
    const Clock::time_point done = Clock::now();
    if (!ack.has_value()) {
      ++result->publish_failures;
      result->publish_acks.push_back(PublishAck{});
      continue;
    }
    result->publish_acks.push_back(AckOf(*ack));
    acked_seq->store(ack->snapshot_seq, std::memory_order_release);
    if (latency_ms == nullptr) continue;
    if (outage != nullptr && outage->Overlaps(due, done)) {
      ++result->untimed;
    } else {
      latency_ms->push_back(Ms(done - due));
    }
  }
}

bool ResetDirectory(const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) *error = "cannot create " + dir + ": " + ec.message();
  return !ec;
}

// churn_durable: a data directory holding the seed publishes (a
// checkpoint plus a WAL tail), written by the server itself.
bool SeedDataDir(const WorkloadSpec& spec, const Trace& trace,
                 const ServerProcess::Options& options,
                 EndToEndResult* result, std::string* error) {
  if (!ResetDirectory(options.data_dir, error)) return false;
  double ignored = 0.0;
  std::unique_ptr<ServerProcess> server =
      ServerProcess::Spawn(options, &ignored, error);
  if (server == nullptr) return false;
  ToprrClient client;
  if (!client.Connect("127.0.0.1", server->port())) {
    *error = "seeding: connect failed: " + client.last_error();
    return false;
  }
  std::atomic<uint64_t> acked{0};
  RunPublishes(spec, trace, 0, trace.seed_publishes, client,
               nullptr, &acked, result, nullptr);
  client.Close();
  if (!server->Stop(nullptr)) {
    *error = "seeding server did not shut down cleanly";
    return false;
  }
  return true;
}

uint64_t ParseCounter(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

}  // namespace

bool RunEndToEnd(const WorkloadSpec& spec, const Trace& trace,
                 const RunPaths& paths, EndToEndResult* result,
                 std::string* error) {
  ServerProcess::Options options;
  options.binary = paths.server_binary;
  options.log_path = paths.work_dir + "/server.log";
  options.data_seed = trace.data_seed;
  options.cache = spec.cache;
  const std::string seeded_dir = paths.work_dir + "/seeded";
  if (spec.durable) {
    options.data_dir = seeded_dir;
    if (!SeedDataDir(spec, trace, options, result, error)) return false;
  }

  // Set-up, several times: spawn to first Hello. Durable spawns each
  // recover a fresh copy of the seeded directory.
  std::unique_ptr<ServerProcess> server;
  for (int spawn = 0; spawn < kSetupSpawns; ++spawn) {
    if (server != nullptr && !server->Stop(nullptr)) {
      *error = "set-up server did not shut down cleanly";
      return false;
    }
    server.reset();
    if (spec.durable) {
      options.data_dir = paths.work_dir + "/data";
      if (!CopyDirectory(seeded_dir, options.data_dir, error)) return false;
    }
    double setup = 0.0;
    server = ServerProcess::Spawn(options, &setup, error);
    if (server == nullptr) return false;
    result->setup_seconds.push_back(setup);
  }

  // Queries are built before the window so the client spends its time
  // on the wire, not on geometry.
  const int connections = spec.connections;
  std::vector<std::vector<std::vector<ToprrQuery>>> warm(connections);
  std::vector<std::vector<std::vector<ToprrQuery>>> measured(connections);
  for (int c = 0; c < connections; ++c) {
    for (const Rpc& rpc : trace.warm[c]) warm[c].push_back(QueriesOf(rpc));
    for (const Rpc& rpc : trace.measured[c]) {
      measured[c].push_back(QueriesOf(rpc));
    }
  }

  ToprrClient writer_client;
  if (!writer_client.Connect("127.0.0.1", server->port())) {
    *error = "writer connect failed: " + writer_client.last_error();
    return false;
  }
  result->base_seq = writer_client.server().snapshot_seq;
  // Publishes survive a server restart: the client reconnects, probes
  // whether the in-flight publish landed, and re-sends it idempotently.
  toprr::serve::RetryPolicy retry;
  retry.max_attempts = 1000;
  retry.initial_backoff_ms = 2.0;
  retry.max_backoff_ms = 20.0;
  retry.retry_budget = 1000.0;
  writer_client.set_retry_policy(retry);

  std::atomic<uint64_t> acked_seq{result->base_seq};
  const bool writer = spec.durable;
  StartGate gate(connections + (writer ? 1 : 0));
  SoloGate solo;
  OutageTracker outage;
  std::vector<Reader> readers;
  readers.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    readers.push_back(Reader{&spec, c, server->port(), &warm[c],
                             &measured[c], &trace.measured[c], &gate, &solo,
                             &outage, &acked_seq, {}, {}});
  }
  std::atomic<int> running{0};
  std::vector<std::thread> threads;
  const auto start_worker = [&](std::function<void()> work) {
    running.fetch_add(1);
    threads.emplace_back([&running, work = std::move(work)] {
      work();
      running.fetch_sub(1);
    });
  };
  for (Reader& reader : readers) start_worker([&reader] { reader.Run(); });
  Clock::time_point writer_end;
  if (writer) {
    start_worker([&] {
      const size_t warm_begin = trace.seed_publishes;
      const size_t measured_begin = warm_begin + trace.warm_publishes;
      RunPublishes(spec, trace, warm_begin, measured_begin, writer_client,
                   nullptr, &acked_seq, result, nullptr);
      gate.Arrive();
      const Clock::time_point start = gate.WaitOpen();
      RunPublishes(spec, trace, measured_begin, trace.publishes.size(),
                   writer_client, &start, &acked_seq, result,
                   &result->publish_ms, &outage);
      writer_end = Clock::now();
    });
  }

  // Supervise until every worker is done: open the window once all have
  // warmed up, and restart a server that dies on the same port (and data
  // directory). Server CPU counts from the window's start, across
  // restarts.
  const int port = server->port();
  Clock::time_point start;
  bool opened = false;
  double cpu_start = 0.0;
  double cpu_of_dead = 0.0;
  HostTicks host_start;
  bool ok = true;
  // VmHWM dies with its process: poll it, so a server that crashes still
  // counts towards rss_mb.
  double peak_rss_mb = 0.0;
  std::deque<std::pair<Clock::time_point, HostTicks>> recent_ticks;
  Clock::time_point all_arrived{};
  for (int poll = 0; ok && running.load() > 0; ++poll) {
    if (poll % kSlowPollEvery == 0) {
      double rss_mb = 0.0;
      if (ReadPeakRssMb(server->pid(), &rss_mb)) {
        peak_rss_mb = std::max(peak_rss_mb, rss_mb);
      }
      HostTicks ticks;
      if (!opened && ReadHostTicks(&ticks)) {
        recent_ticks.emplace_back(Clock::now(), ticks);
        while (SecondsBetween(recent_ticks.front().first,
                              recent_ticks.back().first) > kQuietSeconds) {
          recent_ticks.pop_front();
        }
      }
    }
    if (server->Exited()) {
      outage.Begin(/*crash=*/true);
      double final_cpu = 0.0;
      const bool have_cpu = ReadCpuMs(server->pid(), &final_cpu);
      const std::string how = server->Reap();
      if (opened && have_cpu) cpu_of_dead += final_cpu - cpu_start;
      cpu_start = 0.0;
      result->server_crashes.push_back(
          how + (opened ? " " + std::to_string(SecondsBetween(
                                    start, Clock::now())) +
                              "s into the window"
                        : " during warm-up"));
      options.port = port;
      // A reader re-sending a lost batch can connect as soon as the new
      // server listens, and take it down again before it reports ready.
      server.reset();
      for (int spawn = 0; spawn < kRestartSpawns && server == nullptr;
           ++spawn) {
        double ignored = 0.0;
        server = ServerProcess::Spawn(options, &ignored, error);
        if (server == nullptr) {
          result->server_crashes.push_back("died while restarting: " +
                                           *error);
        }
      }
      ok = server != nullptr;
      if (ok) error->clear();
      outage.End();
      continue;
    }
    if (!opened && gate.AllArrived()) {
      const Clock::time_point now = Clock::now();
      if (all_arrived == Clock::time_point{}) all_arrived = now;
      if (!HostQuiet(recent_ticks) &&
          SecondsBetween(all_arrived, now) < kMaxQuietWaitSeconds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      result->quiet_wait_seconds = SecondsBetween(all_arrived, now);
      start = gate.Open();
      opened = true;
      ok = ReadCpuMs(server->pid(), &cpu_start) && ReadHostTicks(&host_start);
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!opened) gate.Open();  // release workers stuck at the gate
  for (std::thread& thread : threads) thread.join();
  if (!ok) {
    if (error->empty()) *error = "cannot read /proc for the server process";
    return false;
  }
  Clock::time_point end = writer ? writer_end : start;
  for (const Reader& reader : readers) end = std::max(end, reader.tally.end);
  double cpu_end = 0.0;
  HostTicks host_end;
  if (!ReadCpuMs(server->pid(), &cpu_end) || !ReadHostTicks(&host_end) ||
      !ReadPeakRssMb(server->pid(), &result->rss_mb)) {
    *error = "cannot read /proc for the server process";
    return false;
  }
  result->rss_mb = std::max(result->rss_mb, peak_rss_mb);
  result->window_seconds = SecondsBetween(start, end);
  result->cpu_ms = cpu_of_dead + cpu_end - cpu_start;
  const double host_total =
      static_cast<double>(host_end.total - host_start.total);
  result->host_steal_ratio =
      host_total > 0.0
          ? static_cast<double>(host_end.steal - host_start.steal) /
                host_total
          : 0.0;

  result->unexplained_crashes = outage.unexplained();
  for (Reader& reader : readers) {
    ReaderTally& tally = reader.tally;
    result->latency_ms.insert(result->latency_ms.end(),
                              tally.latency_ms.begin(),
                              tally.latency_ms.end());
    result->attempted += tally.attempted;
    result->completed += tally.completed;
    result->rejected += tally.rejected;
    result->non_ok += tally.non_ok;
    result->transport_errors += tally.transport_errors;
    result->cache_hits += tally.cache_hits;
    result->untimed += tally.untimed;
    result->crashed_queries.insert(result->crashed_queries.end(),
                                   tally.crashed_queries.begin(),
                                   tally.crashed_queries.end());
    result->send_late_ms.insert(result->send_late_ms.end(),
                                tally.send_late_ms.begin(),
                                tally.send_late_ms.end());
    for (Sample& sample : tally.samples) {
      result->samples.push_back(std::move(sample));
    }
    result->stamps.insert(result->stamps.end(), tally.stamps.begin(),
                          tally.stamps.end());
  }

  if (!writer) {
    // The read-only workloads measure publish latency after the window,
    // on the same server with no concurrent reads: back-to-back
    // publishes through the in-memory catalog (no WAL).
    RunPublishes(spec, trace, 0, trace.publishes.size(), writer_client,
                 nullptr, &acked_seq, result, &result->publish_ms);
  }
  const std::optional<MutationAck> info = writer_client.CatalogInfo();
  result->final_info_ok =
      info.has_value() && info->status == MutationStatus::kOk;
  if (info.has_value()) result->final_info = *info;
  writer_client.Close();

  if (!server->Stop(&result->shutdown_line)) {
    *error = "server did not shut down cleanly: " + result->shutdown_line;
    return false;
  }
  result->server_protocol_errors =
      ParseCounter(result->shutdown_line, "protocol_errors");
  return true;
}

}  // namespace servebench
