#include "replay.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "core/engine.h"
#include "core/partition.h"
#include "core/region_cache.h"
#include "core/result_region.h"
#include "data/recovery.h"
#include "data/snapshot.h"
#include "pref/flat_region.h"
#include "serve/protocol.h"
#include "topk/rskyband.h"
#include "topk/skyband.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using toprr::DatasetView;
using toprr::Halfspace;
using toprr::PrefBox;
using toprr::SnapshotPtr;
using toprr::ToprrEngine;
using toprr::ToprrQuery;
using toprr::ToprrResult;
using toprr::Vec;
using toprr::serve::ServeResponse;

constexpr size_t kMaxNotes = 5;
// Set-up timings repeated in the traced run, reported as medians.
constexpr int kSetupRepeats = 3;
constexpr int kMaxReplayAttempts = 8;

bool SameBits(const Vec& a, const Vec& b) {
  return a.dim() == b.dim() &&
         (a.dim() == 0 ||
          std::memcmp(a.data(), b.data(), a.dim() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<Vec>& a, const std::vector<Vec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameBits(const std::vector<Halfspace>& a,
              const std::vector<Halfspace>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i].normal, b[i].normal) ||
        std::memcmp(&a[i].offset, &b[i].offset, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameAnswer(const ServeResponse& a, const ServeResponse& b) {
  return a.status == b.status && a.degenerate == b.degenerate &&
         a.geometry_skipped == b.geometry_skipped &&
         a.snapshot_id == b.snapshot_id && a.snapshot_seq == b.snapshot_seq &&
         SameBits(a.impact_halfspaces, b.impact_halfspaces) &&
         SameBits(a.vertices, b.vertices);
}

bool SameResult(const ToprrResult& a, const ToprrResult& b) {
  return a.degenerate == b.degenerate &&
         a.geometry_skipped == b.geometry_skipped &&
         a.timed_out == b.timed_out &&
         a.supporting_halfspaces == b.supporting_halfspaces &&
         SameBits(a.impact_halfspaces, b.impact_halfspaces) &&
         SameBits(a.box_halfspaces, b.box_halfspaces) &&
         SameBits(a.vall, b.vall) && SameBits(a.vertices, b.vertices);
}

// The query as the server solves it: decoded off the wire, then the
// server's option policy (budget clamp, sequential executor, cache bit).
ToprrQuery ServerSideQuery(const PrefBox& box, bool cache) {
  std::vector<ToprrQuery> decoded;
  std::string error;
  toprr::serve::DecodeQueryBatch(
      toprr::serve::EncodeQueryBatch({ClientQuery(box)}), &decoded, &error);
  ToprrQuery query = std::move(decoded.at(0));
  query.options.time_budget_seconds = kServerBudgetSeconds;
  query.options.num_threads = std::max(1, query.options.num_threads);
  query.options.use_region_cache = cache;
  return query;
}

toprr::RegionCacheConfig ServerCacheConfig() {
  toprr::RegionCacheConfig config;
  config.byte_budget = static_cast<size_t>(kCacheBudgetBytes);
  config.quantum = kQuantum;
  return config;
}

// Applies `delta` the way the server's catalog does: inserts, then the
// sorted deletes, then one publish.
SnapshotPtr ApplyDelta(toprr::MutableCatalog* catalog,
                       const PublishDelta& delta) {
  for (const Vec& row : delta.inserts) catalog->StageInsert(row);
  std::vector<uint64_t> deletes = delta.deletes;
  std::sort(deletes.begin(), deletes.end());
  for (const uint64_t id : deletes) catalog->StageDelete(static_cast<int>(id));
  return catalog->Publish();
}

void WriteAll(int fd, const std::string& text) {
  for (size_t done = 0; done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<size_t>(n);
  }
}

void ReportProgress(int fd, uint32_t request) {
  WriteAll(fd, "R " + std::to_string(request) + "\n");
}

std::string SerializeOutput(const ReplayOutput& out) {
  std::ostringstream text;
  text.precision(17);
  for (const auto& [name, metric] : out.metrics.metrics()) {
    text << "M " << name << ' ' << metric.value << ' ' << metric.unit << '\n';
  }
  text << "S " << out.mean_solve_us << '\n';
  text << "K " << out.report.checked << ' ' << out.report.failures << '\n';
  for (const std::string& note : out.report.notes) {
    text << "N " << note << '\n';
  }
  return text.str();
}

// Reads what a replay child wrote: progress lines, then its output or
// an "E <error>" line.
bool ParseOutput(const std::string& text, ReplayOutput* out,
                 uint32_t* last_request, std::string* error) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() < 2) continue;
    std::istringstream fields(line.substr(2));
    switch (line[0]) {
      case 'R':
        fields >> *last_request;
        break;
      case 'M': {
        std::string name;
        std::string unit;
        double value = 0.0;
        fields >> name >> value >> unit;
        out->metrics.Set(name, value, unit);
        break;
      }
      case 'S':
        fields >> out->mean_solve_us;
        break;
      case 'K':
        fields >> out->report.checked >> out->report.failures;
        break;
      case 'N':
        out->report.notes.push_back(line.substr(2));
        break;
      case 'E':
        *error = line.substr(2);
        return false;
    }
  }
  return true;
}

}  // namespace

void CheckReport::Fail(const std::string& note) {
  ++failures;
  if (notes.size() < kMaxNotes) notes.push_back(note);
}

void Verify(const WorkloadSpec& spec, const Trace& trace,
            const EndToEndResult& run, CheckReport* report) {
  toprr::MutableCatalog catalog(ServedDataset(trace.data_seed));
  // Every snapshot the publish sequence makes: seq -> id.
  std::map<uint64_t, uint64_t> ids;
  ids[catalog.Current()->seq()] = catalog.Current()->id();
  std::map<uint64_t, std::vector<const Sample*>> samples_by_seq;
  for (const Sample& sample : run.samples) {
    samples_by_seq[sample.response.snapshot_seq].push_back(&sample);
  }
  // Once created, the engine follows every publish, as the server's does:
  // its skybands are carried forward one snapshot delta at a time.
  std::unique_ptr<ToprrEngine> engine;
  const auto check_samples_at = [&](const SnapshotPtr& snap) {
    if (engine != nullptr) engine->SetSnapshot(snap);
    const auto it = samples_by_seq.find(snap->seq());
    if (it == samples_by_seq.end()) return;
    if (engine == nullptr) {
      engine = std::make_unique<ToprrEngine>(snap);
      if (spec.cache) engine->EnableRegionCache(ServerCacheConfig());
    }
    for (const Sample* sample : it->second) {
      const PrefBox& box =
          trace.measured[sample->connection][sample->rpc].boxes[sample->slot];
      ++report->checked;
      const ServeResponse expected = toprr::serve::ResponseFromResult(
          engine->Solve(ServerSideQuery(box, spec.cache)));
      if (!SameAnswer(expected, sample->response)) {
        report->Fail("answer mismatch: connection " +
                     std::to_string(sample->connection) + " rpc " +
                     std::to_string(sample->rpc) + " query " +
                     std::to_string(sample->slot) + " at seq " +
                     std::to_string(snap->seq()));
      }
    }
    samples_by_seq.erase(it);
  };

  check_samples_at(catalog.Current());
  if (trace.seed_publishes == 0 && run.base_seq != catalog.Current()->seq()) {
    report->Fail("served seq " + std::to_string(run.base_seq) +
                 ", expected the root's");
  }
  if (run.publish_acks.size() != trace.publishes.size()) {
    report->Fail("writer heard " + std::to_string(run.publish_acks.size()) +
                 " acks for " + std::to_string(trace.publishes.size()) +
                 " publishes");
  }
  for (size_t p = 0; p < trace.publishes.size(); ++p) {
    const SnapshotPtr snap = ApplyDelta(&catalog, trace.publishes[p]);
    ids[snap->seq()] = snap->id();
    if (p < run.publish_acks.size()) {
      const PublishAck& ack = run.publish_acks[p];
      if (ack.seq != snap->seq() || ack.id != snap->id() ||
          ack.live_rows != snap->live_rows() ||
          ack.physical_rows != snap->rows()) {
        report->Fail("publish " + std::to_string(p) + " acked seq " +
                     std::to_string(ack.seq) + ", expected " +
                     std::to_string(snap->seq()));
      }
    }
    if (p + 1 == trace.seed_publishes && run.base_seq != snap->seq()) {
      report->Fail("recovered seq " + std::to_string(run.base_seq) +
                   ", expected " + std::to_string(snap->seq()));
    }
    check_samples_at(snap);
  }
  for (const auto& [seq, samples] : samples_by_seq) {
    report->Fail(std::to_string(samples.size()) +
                 " sampled responses carry seq " + std::to_string(seq) +
                 ", which no publish made");
  }

  const SnapshotPtr last = catalog.Current();
  const toprr::serve::MutationAck& info = run.final_info;
  if (!run.final_info_ok || info.snapshot_seq != last->seq() ||
      info.snapshot_id != last->id() || info.live_rows != last->live_rows() ||
      info.physical_rows != last->rows()) {
    report->Fail("final CatalogInfo seq " + std::to_string(info.snapshot_seq) +
                 ", expected " + std::to_string(last->seq()) +
                 " (lost or duplicated publishes)");
  }

  std::map<int, uint64_t> last_seq;
  for (const EndToEndResult::Stamp& stamp : run.stamps) {
    const auto it = ids.find(stamp.seq);
    if (it == ids.end() || it->second != stamp.id) {
      report->Fail("response stamped seq " + std::to_string(stamp.seq) +
                   " with an id no publish made");
    }
    if (stamp.seq < stamp.floor) {
      report->Fail("read-your-writes: seq " + std::to_string(stamp.seq) +
                   " after publish " + std::to_string(stamp.floor) +
                   " was acked");
    }
    uint64_t& previous = last_seq[stamp.connection];
    if (stamp.seq < previous) {
      report->Fail("connection " + std::to_string(stamp.connection) +
                   " went back from seq " + std::to_string(previous) +
                   " to " + std::to_string(stamp.seq));
    }
    previous = stamp.seq;
  }
}

namespace {

// Per-query counts recorded at the layer boundaries.
struct Counts {
  std::vector<double> rskyband_candidates;
  std::vector<double> regions_tested;
  std::vector<double> vall_unique;
  std::vector<double> impact_halfspaces;
  std::vector<double> response_bytes;
  std::vector<double> hit_solve_us;
  std::vector<double> miss_solve_us;
  uint64_t measured_lookups = 0;
  uint64_t measured_hits = 0;
};

// ToprrEngine::Solve on an uncached query, one public call per layer:
// r-skyband over the cached k-skyband, partition, dedup, assembly.
ToprrResult TracedSolve(SpanRecorder* rec, const DatasetView& view,
                        const std::vector<int>& kskyband,
                        const ToprrQuery& query, Counts* counts) {
  const toprr::ToprrOptions& options = query.options;
  std::vector<int> candidates;
  {
    ScopedSpan span(rec, "topk.rskyband");
    candidates = toprr::RSkybandVertices(view, query.region.vertices(),
                                         query.k, &kskyband);
  }
  toprr::PartitionOutput partition;
  {
    ScopedSpan span(rec, "core.partition");
    partition = toprr::PartitionPreferenceRegion(
        view, candidates, query.k, query.region,
        toprr::PartitionConfigFromOptions(options));
  }
  ToprrResult result;
  {
    ScopedSpan span(rec, "core.dedup");
    result.vall = toprr::DedupVertices(partition.vall);
  }
  {
    ScopedSpan span(rec, "core.assemble");
    toprr::AssembleResultRegion(view, candidates, query.k, result.vall,
                                options, &result);
  }
  counts->rskyband_candidates.push_back(candidates.size());
  counts->regions_tested.push_back(partition.regions_tested);
  return result;
}

// The cached-box path of ToprrEngine::Solve: a containment hit clips the
// cached cells; a miss solves the canonical box, caches it, then clips.
// Profiles never overlap, so the partial-overlap tier is never taken.
ToprrResult TracedCachedSolve(SpanRecorder* rec, toprr::RegionCache* cache,
                              const SnapshotPtr& snap,
                              const std::vector<int>& kskyband,
                              const ToprrQuery& query, bool* hit,
                              Counts* counts, CheckReport* report) {
  const toprr::ToprrOptions& options = query.options;
  const DatasetView view = snap->View();
  std::shared_ptr<const toprr::RegionCacheEntry> entry;
  PrefBox box;
  std::string signature;
  {
    ScopedSpan span(rec, "core.cache_lookup");
    const std::optional<PrefBox> recovered =
        toprr::BoxFromRegion(query.region);
    if (!recovered.has_value() || !recovered->InsideSimplex()) {
      report->Fail("zipf query is not a cacheable box");
      return ToprrResult{};
    }
    box = *recovered;
    signature = toprr::CacheSignature(options);
    const uint64_t id = snap->id();
    signature.append(reinterpret_cast<const char*>(&id), sizeof(id));
    entry = cache->FindContaining(query.k, signature, box);
    if (entry == nullptr) {
      if (cache->FindOverlap(query.k, signature, box) != nullptr) {
        report->Fail("zipf profiles overlap in the cache");
      }
      cache->RecordMiss();
    }
  }
  *hit = entry != nullptr;
  if (entry == nullptr) {
    const PrefBox canon = cache->Canonicalize(box);
    if (!canon.InsideSimplex()) {
      report->Fail("canonical profile box leaves the simplex");
      return ToprrResult{};
    }
    const toprr::PrefRegion root = toprr::PrefRegion::FromBox(canon);
    auto fresh = std::make_shared<toprr::RegionCacheEntry>();
    {
      ScopedSpan span(rec, "topk.rskyband");
      fresh->candidates = toprr::RSkyband(view, canon, query.k, &kskyband);
    }
    toprr::PartitionOutput partition;
    {
      ScopedSpan span(rec, "core.partition");
      toprr::PartitionConfig config =
          toprr::PartitionConfigFromOptions(options);
      config.collect_flat_cells = true;
      partition = toprr::PartitionPreferenceRegion(view, fresh->candidates,
                                                   query.k, root, config);
    }
    // The engine assembles the canonical box's own answer too.
    ToprrResult canon_result;
    {
      ScopedSpan span(rec, "core.dedup");
      canon_result.vall = toprr::DedupVertices(partition.vall);
    }
    {
      ScopedSpan span(rec, "core.assemble");
      toprr::AssembleResultRegion(view, fresh->candidates, query.k,
                                  canon_result.vall, options, &canon_result);
    }
    {
      ScopedSpan span(rec, "core.cache_insert");
      fresh->box = canon;
      fresh->k = query.k;
      fresh->signature = signature;
      fresh->cells = std::move(partition.flat_cells);
      fresh->regions_tested = partition.regions_tested;
      fresh->snapshot = snap;
      cache->Insert(fresh);
    }
    counts->rskyband_candidates.push_back(fresh->candidates.size());
    counts->regions_tested.push_back(partition.regions_tested);
    entry = fresh;
  }
  std::vector<Vec> clipped;
  {
    ScopedSpan span(rec, "core.clip");
    toprr::GeomArena arena;
    toprr::AppendCellsClippedToBox(entry->cells, box, options.eps, &arena,
                                   &clipped);
  }
  ToprrResult result;
  {
    ScopedSpan span(rec, "core.dedup");
    result.vall = toprr::DedupVertices(clipped);
  }
  {
    ScopedSpan span(rec, "core.assemble");
    toprr::AssembleResultRegion(view, entry->candidates, query.k,
                                result.vall, options, &result);
  }
  return result;
}

// One replayed request: the decomposed traced path and the whole engine
// solve for each query (alternating which runs first, so neither always
// finds warm caches), then the response codec.
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, SpanRecorder* rec, ToprrEngine* engine,
           const std::set<uint32_t>* skip, int progress_fd,
           CheckReport* report)
      : spec_(spec),
        rec_(rec),
        engine_(engine),
        skip_(skip),
        progress_fd_(progress_fd),
        report_(report) {
    if (spec.cache) cache_ = std::make_unique<toprr::RegionCache>(
        ServerCacheConfig());
  }

  void set_kskyband(const std::vector<int>* ids) { kskyband_ = ids; }

  void Request(const Rpc& rpc, bool measured) {
    const uint32_t id = rec_->request() + 1;
    rec_->set_request(id);
    if (skip_->count(id) != 0) return;
    ReportProgress(progress_fd_, id);
    ScopedSpan request(rec_, "serve.request");
    const SnapshotPtr snap = engine_->snapshot();
    std::vector<ServeResponse> responses;
    for (const PrefBox& box : rpc.boxes) {
      const ToprrQuery query = ServerSideQuery(box, spec_.cache);
      ToprrResult traced;
      ToprrResult whole;
      bool hit = false;
      const auto run_traced = [&] {
        ScopedSpan span(rec_, "query");
        traced = spec_.cache ? TracedCachedSolve(rec_, cache_.get(), snap,
                                                 *kskyband_, query, &hit,
                                                 &counts_, report_)
                             : TracedSolve(rec_, snap->View(), *kskyband_,
                                           query, &counts_);
      };
      double solve_us = 0.0;
      const auto run_whole = [&] {
        const Clock::time_point begin = Clock::now();
        {
          ScopedSpan span(rec_, "core.solve");
          whole = engine_->Solve(query);
        }
        solve_us = SecondsBetween(begin, Clock::now()) * 1e6;
      };
      if (++queries_ % 2 == 0) {
        run_traced();
        run_whole();
      } else {
        run_whole();
        run_traced();
      }
      ++report_->checked;
      if (!SameResult(traced, whole)) {
        report_->Fail("decomposed layers differ from ToprrEngine::Solve on "
                      "replayed query " + std::to_string(queries_));
      }
      if (spec_.cache) {
        const bool engine_hit = whole.stats.scheduler.cache_hits > 0;
        if (engine_hit != hit) {
          report_->Fail("replay cache and engine cache disagree on a hit");
        }
        (hit ? counts_.hit_solve_us : counts_.miss_solve_us)
            .push_back(solve_us);
        if (measured) {
          ++counts_.measured_lookups;
          counts_.measured_hits += hit ? 1 : 0;
        }
      }
      counts_.vall_unique.push_back(whole.vall.size());
      counts_.impact_halfspaces.push_back(whole.impact_halfspaces.size());
      whole.snapshot_id = snap->id();
      whole.snapshot_seq = snap->seq();
      responses.push_back(toprr::serve::ResponseFromResult(whole));
    }
    std::string payload;
    {
      ScopedSpan span(rec_, "serve.encode_response");
      payload = toprr::serve::EncodeResponseBatch(responses);
    }
    std::vector<ServeResponse> decoded;
    std::string error;
    bool ok = false;
    {
      ScopedSpan span(rec_, "serve.decode_response");
      ok = toprr::serve::DecodeResponseBatch(payload, &decoded, &error);
    }
    if (!ok || decoded.size() != responses.size()) {
      report_->Fail("response codec round trip failed: " + error);
    }
    counts_.response_bytes.push_back(payload.size());
  }

  const Counts& counts() const { return counts_; }
  toprr::RegionCache* cache() { return cache_.get(); }

 private:
  const WorkloadSpec& spec_;
  SpanRecorder* rec_;
  ToprrEngine* engine_;
  const std::set<uint32_t>* skip_;
  int progress_fd_;
  CheckReport* report_;
  const std::vector<int>* kskyband_ = nullptr;
  std::unique_ptr<toprr::RegionCache> cache_;
  Counts counts_;
  uint64_t queries_ = 0;
};

// The writer side of churn_durable, in process: the plain in-memory
// catalog publish, the durable publish (WAL append + fsync, checkpoints),
// the engine's snapshot switch, and the k-skyband maintenance it implies.
struct WriterReplay {
  toprr::MutableCatalog* plain;
  toprr::DurableCatalog* durable;
  ToprrEngine* engine;
  toprr::KSkybandState* kskyband;
  SpanRecorder* rec;
  CheckReport* report;
  std::vector<double> checkpoint_ms;

  void Publish(size_t p, const PublishDelta& delta,
               const EndToEndResult& run) {
    rec->set_request(rec->request() + 1);
    ScopedSpan publish(rec, "writer.publish");
    SnapshotPtr plain_snap;
    {
      ScopedSpan span(rec, "data.catalog_publish");
      plain_snap = ApplyDelta(plain, delta);
    }
    const uint64_t checkpoints = durable->counters().checkpoints_written;
    const Clock::time_point begin = Clock::now();
    toprr::DurableCatalog::PublishOutcome outcome;
    {
      ScopedSpan span(rec, "data.durable_publish");
      outcome = durable->Publish(delta.inserts, delta.deletes, 1, p + 1);
    }
    if (durable->counters().checkpoints_written != checkpoints) {
      checkpoint_ms.push_back(SecondsBetween(begin, Clock::now()) * 1e3);
    }
    if (!outcome.ok || outcome.snapshot->id() != plain_snap->id() ||
        (p < run.publish_acks.size() &&
         run.publish_acks[p].id != plain_snap->id())) {
      report->Fail("replayed publish " + std::to_string(p) +
                   " does not match the served one: " + outcome.error);
      return;
    }
    {
      ScopedSpan span(rec, "core.set_snapshot");
      engine->SetSnapshot(outcome.snapshot);
    }
    const SnapshotPtr& snap = outcome.snapshot;
    const bool rebuild =
        toprr::KSkybandDeleteHitsMember(snap->delta().deleted, kskyband->ids);
    if (rebuild != delta.deletes_member) {
      report->Fail("publish " + std::to_string(p) +
                   (rebuild ? " deleted" : " did not delete") +
                   " a k-skyband member, unlike its trace entry");
    }
    if (rebuild) {
      ScopedSpan span(rec, "topk.kskyband_build");
      *kskyband =
          toprr::SortBasedKSkybandPool(snap->View(), snap->live_ids(), kK);
    } else {
      ScopedSpan span(rec, "topk.kskyband_apply_inserts");
      toprr::KSkybandApplyInserts(snap->View(), kK, snap->delta().inserted,
                                  kskyband);
    }
    if (kskyband->ids != engine->KSkyband(kK)) {
      report->Fail("replayed k-skyband differs from the engine's after "
                   "publish " + std::to_string(p));
    }
  }
};

// One attempt at the replay, skipping the requests in `skip`. Writes
// "R <request>" to `progress_fd` as each read request starts.
bool ReplayOnce(const WorkloadSpec& spec, const Trace& trace,
                const EndToEndResult& run, const std::string& work_dir,
                const std::string& spans_path,
                const std::set<uint32_t>& skip, int progress_fd,
                ReplayOutput* out, std::string* error) {
  SpanRecorder rec;
  CheckReport& report = out->report;
  MetricTable& m = out->metrics;

  toprr::Dataset data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(&rec, "data.generate");
    data = ServedDataset(trace.data_seed);
  }
  SnapshotPtr root = toprr::DatasetSnapshot::FromDataset(data);

  // churn_durable replays its writer against a durable catalog seeded and
  // recovered the way the server's is.
  std::unique_ptr<toprr::DurableCatalog> durable;
  toprr::MutableCatalog plain(root);
  if (spec.durable) {
    toprr::DurabilityOptions options;
    options.fsync_policy = toprr::FsyncPolicy::kAlways;
    options.checkpoint_every = kCheckpointEvery;
    options.data_dir = work_dir + "/replay-seeded";
    std::error_code ec;
    fs::remove_all(options.data_dir, ec);
    fs::create_directories(options.data_dir, ec);
    durable = toprr::DurableCatalog::Open(options, &data, error);
    if (durable == nullptr) return false;
    for (size_t p = 0; p < trace.seed_publishes; ++p) {
      const PublishDelta& delta = trace.publishes[p];
      if (!durable->Publish(delta.inserts, delta.deletes, 1, p + 1).ok) {
        *error = "seeding the replay catalog failed";
        return false;
      }
      ApplyDelta(&plain, delta);
    }
    durable.reset();
    const std::string seeded = options.data_dir;
    options.data_dir = work_dir + "/replay-data";
    for (int i = 0; i < kSetupRepeats; ++i) {
      durable.reset();
      if (!CopyDirectory(seeded, options.data_dir, error)) return false;
      ScopedSpan span(&rec, "data.recovery");
      durable = toprr::DurableCatalog::Open(options, nullptr, error);
      if (durable == nullptr) return false;
    }
    root = durable->catalog()->Current();
  }

  ToprrEngine engine(root);
  if (spec.cache) engine.EnableRegionCache(ServerCacheConfig());
  toprr::KSkybandState kskyband;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(&rec, "topk.kskyband_build");
    kskyband = toprr::SortBasedKSkybandPool(root->View(), root->live_ids(), kK);
  }
  if (kskyband.ids != engine.KSkyband(kK)) {
    report.Fail("replayed k-skyband differs from the engine's");
  }

  Replayer replayer(spec, &rec, &engine, &skip, progress_fd, &report);
  replayer.set_kskyband(&kskyband.ids);
  // Measured RPCs the replay covers, as (connection, rpc) in trace order.
  struct Read {
    double due;
    int connection;
    size_t rpc;
  };
  std::vector<Read> reads;
  for (size_t i = 0, taken = 0;
       taken < static_cast<size_t>(spec.replay_rpcs); i += spec.replay_stride,
              ++taken) {
    bool any = false;
    for (int c = 0; c < spec.connections; ++c) {
      if (i >= trace.measured[c].size()) continue;
      reads.push_back(Read{trace.measured[c][i].due, c, i});
      any = true;
    }
    if (!any) break;
  }

  if (spec.workload == Workload::kZipfCached) {
    // The warm-up's first touch of every profile: the cache misses.
    for (int c = 0; c < spec.connections; ++c) {
      for (size_t i = c; i < trace.profiles.size(); i += spec.connections) {
        replayer.Request(Rpc{{trace.profiles[i]}, 0.0}, false);
      }
    }
  }

  uint64_t rebuilds = 0;
  WriterReplay writer{&plain, durable.get(), &engine, &kskyband, &rec,
                      &report, {}};
  const size_t measured_begin = trace.seed_publishes + trace.warm_publishes;
  toprr::DurableCounters wal_before;
  if (spec.durable) {
    for (size_t p = trace.seed_publishes; p < measured_begin; ++p) {
      writer.Publish(p, trace.publishes[p], run);
    }
    wal_before = durable->counters();
    const uint64_t engine_before = engine.update_counters().skyband_rebuilds;
    // Interleave publishes and reads by when they were due.
    size_t next_read = 0;
    std::stable_sort(reads.begin(), reads.end(),
                     [](const Read& a, const Read& b) { return a.due < b.due; });
    for (size_t p = measured_begin; p < trace.publishes.size(); ++p) {
      const double due =
          static_cast<double>(p - measured_begin) / spec.publish_rate;
      for (; next_read < reads.size() && reads[next_read].due < due;
           ++next_read) {
        const Read& read = reads[next_read];
        replayer.Request(trace.measured[read.connection][read.rpc], true);
      }
      writer.Publish(p, trace.publishes[p], run);
    }
    for (; next_read < reads.size(); ++next_read) {
      const Read& read = reads[next_read];
      replayer.Request(trace.measured[read.connection][read.rpc], true);
    }
    rebuilds = engine.update_counters().skyband_rebuilds - engine_before;
  } else {
    for (const Read& read : reads) {
      replayer.Request(trace.measured[read.connection][read.rpc], true);
    }
  }

  // Metrics.
  const Counts& counts = replayer.counts();
  const size_t measured_publishes = trace.publishes.size() - measured_begin;
  const auto timing = [&](const std::string& name, const char* span) {
    m.SetTiming(name, rec.DurationsUs(span), "us");
  };
  std::vector<double> build_ms = rec.DurationsUs("topk.kskyband_build");
  for (double& v : build_ms) v *= 1e-3;
  m.SetMedian("topk.kskyband_build_ms", build_ms, "ms");
  m.Set("topk.kskyband_size", kskyband.ids.size(), "count");
  timing("topk.kskyband_apply_inserts_us", "topk.kskyband_apply_inserts");
  timing("topk.rskyband_us", "topk.rskyband");
  m.Set("topk.rskyband_candidates",
        Percentile(counts.rskyband_candidates, 0.5), "count");
  timing("core.cache_lookup_us", "core.cache_lookup");
  timing("core.partition_us", "core.partition");
  m.Set("core.regions_tested", Percentile(counts.regions_tested, 0.5),
        "count");
  timing("core.clip_us", "core.clip");
  timing("core.dedup_us", "core.dedup");
  timing("core.assemble_us", "core.assemble");
  m.Set("core.vall_unique", Percentile(counts.vall_unique, 0.5), "count");
  m.Set("core.impact_halfspaces", Percentile(counts.impact_halfspaces, 0.5),
        "count");
  m.Set("core.cache_hit_ratio",
        counts.measured_lookups == 0
            ? 0.0
            : static_cast<double>(counts.measured_hits) /
                  static_cast<double>(counts.measured_lookups),
        "ratio");
  m.SetTiming("core.cache_hit_solve_us", counts.hit_solve_us, "us");
  m.SetMedian("core.cache_miss_solve_us", counts.miss_solve_us, "us");
  m.Set("core.cache_bytes",
        replayer.cache() == nullptr ? 0.0 : replayer.cache()->TotalBytes(),
        "bytes");
  timing("core.solve_us", "core.solve");
  const double solve_total = rec.TotalUs("core.solve");
  double layers_total = 0.0;
  for (const char* layer :
       {"topk.rskyband", "core.cache_lookup", "core.partition", "core.clip",
        "core.dedup", "core.assemble", "core.cache_insert"}) {
    layers_total += rec.TotalUs(layer);
  }
  m.Set("core.layer_coverage",
        solve_total > 0.0 ? layers_total / solve_total : 0.0, "ratio");
  m.Set("bench.trace_overhead",
        solve_total > 0.0 ? rec.TotalUs("query") / solve_total - 1.0 : 0.0,
        "ratio");
  out->mean_solve_us = Mean(rec.DurationsUs("core.solve"));
  timing("core.set_snapshot_us", "core.set_snapshot");
  m.Set("core.skyband_rebuild_ratio",
        measured_publishes == 0 || !spec.durable
            ? 0.0
            : static_cast<double>(rebuilds) /
                  static_cast<double>(measured_publishes),
        "ratio");
  std::vector<double> generate_ms = rec.DurationsUs("data.generate");
  for (double& v : generate_ms) v *= 1e-3;
  m.SetMedian("data.generate_ms", generate_ms, "ms");
  std::vector<double> recovery_ms = rec.DurationsUs("data.recovery");
  for (double& v : recovery_ms) v *= 1e-3;
  m.SetMedian("data.recovery_ms", recovery_ms, "ms");
  timing("data.catalog_publish_us", "data.catalog_publish");
  timing("data.durable_publish_us", "data.durable_publish");
  double wal_bytes = 0.0;
  double wal_fsyncs = 0.0;
  if (spec.durable && measured_publishes > 0) {
    const toprr::DurableCounters after = durable->counters();
    wal_bytes = static_cast<double>(after.wal_bytes - wal_before.wal_bytes) /
                measured_publishes;
    wal_fsyncs =
        static_cast<double>(after.wal_fsyncs - wal_before.wal_fsyncs) /
        measured_publishes;
  }
  m.Set("data.wal_bytes_per_publish", wal_bytes, "bytes");
  m.Set("data.wal_fsyncs_per_publish", wal_fsyncs, "count");
  m.SetMedian("data.checkpoint_ms", writer.checkpoint_ms, "ms");
  timing("serve.encode_response_us", "serve.encode_response");
  timing("serve.decode_response_us", "serve.decode_response");
  m.Set("serve.response_bytes", Percentile(counts.response_bytes, 0.5),
        "bytes");

  if (spec.durable) {
    const uint64_t expected = measured_publishes / kRebuildEvery;
    if (rebuilds != expected) {
      report.Fail("full skyband rebuilds: engine " + std::to_string(rebuilds) +
                  ", expected exactly " + std::to_string(expected));
    }
  }
  if (!rec.WriteJsonl(spans_path)) {
    *error = "cannot write " + spans_path;
    return false;
  }
  return true;
}

}  // namespace

bool RunTracedReplay(const WorkloadSpec& spec, const Trace& trace,
                     const EndToEndResult& run, const std::string& work_dir,
                     const std::string& spans_path, ReplayOutput* out,
                     std::string* error) {
  // The replay runs in a child process. A request that kills it -- the
  // same solver defect that takes the server down -- is recorded as a
  // failure and the replay starts over without it.
  std::set<uint32_t> skip;
  for (int attempt = 0; attempt < kMaxReplayAttempts; ++attempt) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
      ::setrlimit(RLIMIT_AS, &cap);
      ReplayOutput child;
      std::string child_error;
      const bool ok = ReplayOnce(spec, trace, run, work_dir, spans_path, skip,
                                 fds[1], &child, &child_error);
      WriteAll(fds[1], ok ? SerializeOutput(child) : "E " + child_error + "\n");
      ::_exit(ok ? 0 : 2);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      *error = "fork failed";
      return false;
    }
    std::string text;
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    uint32_t last_request = 0;
    if (!ParseOutput(text, out, &last_request, error)) return false;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      out->crashed_requests.assign(skip.begin(), skip.end());
      return true;
    }
    if (!WIFSIGNALED(status) || last_request == 0 ||
        skip.count(last_request) != 0) {
      *error = "the traced replay failed (status " + std::to_string(status) +
               ")";
      return false;
    }
    skip.insert(last_request);
    *out = ReplayOutput{};
  }
  *error = "the traced replay crashed too often";
  return false;
}

}  // namespace servebench
