#include "core/result_region.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/logging.h"
#include "geom/halfspace_intersection.h"
#include "pref/pref_space.h"
#include "topk/score_kernel.h"
#include "topk/topk.h"

namespace toprr {
namespace {

std::vector<int64_t> QuantizeKey(const Vec& v, double tol) {
  std::vector<int64_t> key(v.dim());
  for (size_t i = 0; i < v.dim(); ++i) {
    key[i] = static_cast<int64_t>(std::llround(v[i] / tol));
  }
  return key;
}

}  // namespace

std::vector<Vec> DedupVertices(const std::vector<Vec>& vall, double tol) {
  std::vector<Vec> unique;
  std::map<std::vector<int64_t>, size_t> seen;
  for (const Vec& v : vall) {
    if (seen.emplace(QuantizeKey(v, tol), unique.size()).second) {
      unique.push_back(v);
    }
  }
  return unique;
}

void AssembleResultRegion(const DatasetView& data,
                          const std::vector<int>& candidates, int k,
                          const std::vector<Vec>& vall_unique,
                          const ToprrOptions& options, ToprrResult* result) {
  const size_t d = data.dim();
  CHECK(!vall_unique.empty());

  // Impact halfspace per vertex: S_w(o) >= TopK(w)  <=>  (-w).o <= -TopK.
  // Vall can hold thousands of vertices over one shared candidate pool,
  // so the top-k-th scores come from the SoA scoring kernel in chunked
  // sweeps (bit-identical to the naive scan; chunking keeps the score
  // matrix small) unless the naive path was requested.
  constexpr size_t kChunk = 64;
  ScoreArena arena;
  ScoreKernel kernel(arena);
  std::vector<Vec> chunk_vertices;
  TopkResult chunk_topk;
  std::vector<double> kth_scores;
  kth_scores.reserve(vall_unique.size());
  if (options.use_score_kernel) {
    kernel.LoadBlock(data, candidates);
    for (size_t begin = 0; begin < vall_unique.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, vall_unique.size());
      chunk_vertices.assign(vall_unique.begin() + begin,
                            vall_unique.begin() + end);
      kernel.ScoreVertices(chunk_vertices, nullptr);
      for (size_t v = 0; v < chunk_vertices.size(); ++v) {
        kernel.TopKInto(v, k, chunk_topk);
        kth_scores.push_back(chunk_topk.KthScore());
      }
    }
  } else {
    for (const Vec& x : vall_unique) {
      kth_scores.push_back(
          ComputeTopKReduced(data, candidates, x, k).KthScore());
    }
  }

  double min_margin = 1.0;  // min over v of (score of top corner - TopK(v))
  std::map<std::vector<int64_t>, bool> seen_halfspace;
  for (size_t i = 0; i < vall_unique.size(); ++i) {
    const Vec& x = vall_unique[i];
    const Vec w = FullWeight(x);
    const double kth = kth_scores[i];
    Vec normal(d);
    for (size_t j = 0; j < d; ++j) normal[j] = -w[j];
    Halfspace h(std::move(normal), -kth);
    // Dedup: identical constraints arise when adjacent kIPRs share both a
    // vertex (already deduped) or produce parallel equal planes.
    Vec key_vec(d + 1);
    for (size_t j = 0; j < d; ++j) key_vec[j] = h.normal[j];
    key_vec[d] = h.offset;
    if (!seen_halfspace.emplace(QuantizeKey(key_vec, 1e-10), true).second) {
      continue;
    }
    // Top-corner margin: S_w(1,..,1) = sum(w) = 1.
    min_margin = std::min(min_margin, 1.0 - kth);
    result->impact_halfspaces.push_back(std::move(h));
  }

  result->box_halfspaces = BoxHalfspaces(Vec(d, 0.0), Vec(d, 1.0));

  if (min_margin <= 1e-9) {
    // Some option already achieves score 1 at a Vall vertex: oR touches
    // the top corner with empty interior.
    result->degenerate = true;
    LOG(INFO) << "TopRR result region has (numerically) empty interior";
    return;
  }
  if (!options.build_geometry) return;
  if (d > options.geometry_dim_limit ||
      result->impact_halfspaces.size() > options.geometry_halfspace_limit) {
    LOG(INFO) << "skipping oR vertex enumeration (d=" << d << ", "
              << result->impact_halfspaces.size()
              << " constraints exceed the geometry limits); the halfspace "
              << "description is exact";
    result->geometry_skipped = true;
    return;
  }

  // Interior point: pull the top corner inward by half the smallest
  // margin. It satisfies box constraints with slack delta and every impact
  // halfspace with slack >= min_margin - delta > 0.
  const double delta = std::min(0.5 * min_margin, 0.25);
  const Vec interior(d, 1.0 - delta);

  std::vector<Halfspace> all = result->impact_halfspaces;
  for (const Halfspace& h : result->box_halfspaces) all.push_back(h);

  HalfspaceIntersectionOptions options;
  auto geometry = IntersectHalfspaces(all, interior, options);
  // oR lies in the unit box, so an unbounded answer can only come from a
  // numerically degenerate dual hull: report it like a failed hull rather
  // than aborting on client-reachable input.
  if (!geometry.has_value() || geometry->unbounded) {
    LOG(WARNING) << "vertex enumeration failed (degenerate dual hull); "
                 << "halfspace description remains exact";
    result->degenerate = true;
    return;
  }
  result->vertices = std::move(geometry->vertices);
  for (size_t idx : geometry->active_halfspaces) {
    if (idx < result->impact_halfspaces.size()) {
      result->supporting_halfspaces.push_back(idx);
    }
  }
}

}  // namespace toprr
