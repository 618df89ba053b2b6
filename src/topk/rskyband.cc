#include "topk/rskyband.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "topk/score_kernel.h"
#include "topk/skyband.h"

namespace toprr {

bool RDominates(const DatasetView& data, int a, int b, const PrefBox& region) {
  if (a == b) return false;
  const double* pa = data.Row(a);
  const double* pb = data.Row(b);
  const double lo = MinScoreDiffOverBox(pa, pb, region);
  if (lo < 0.0) return false;
  const double hi = MaxScoreDiffOverBox(pa, pb, region);
  if (hi > 0.0) return true;
  // Scores identical everywhere on the box (e.g. duplicate rows): order by
  // id so one representative of a duplicate block survives per slot.
  return a < b;
}

bool RDominatesVertices(const DatasetView& data, int a, int b,
                        const std::vector<Vec>& vertices) {
  if (a == b) return false;
  const double* pa = data.Row(a);
  const double* pb = data.Row(b);
  bool strict = false;
  for (const Vec& v : vertices) {
    const double diff = ReducedScoreDiff(pa, pb, v);
    if (diff < 0.0) return false;
    if (diff > 0.0) strict = true;
  }
  // Equal everywhere (at all vertices hence, by Lemma 1, on the whole
  // polytope): order duplicates by id.
  return strict || a < b;
}

namespace {

// Per-member scores over wR, aligned with the pool: the score at the
// interior point that fixes the scan order, and the computed minimum and
// maximum score at the points where the dominance predicate evaluates.
struct PoolScores {
  std::vector<double> interior;
  std::vector<double> lo;
  std::vector<double> hi;

  explicit PoolScores(size_t n) : interior(n), lo(n), hi(n) {}
};

// max(magnitude, |values[j]|) over `count` values, propagating NaN: a
// NaN weight makes the margin infinite, which turns the bound off. (Row
// magnitudes use a plain max: a row holding a NaN scores NaN everywhere,
// and RSkybandScan never lets such a row feed the bound.)
double MaxAbs(const double* values, size_t count, double magnitude) {
  for (size_t j = 0; j < count; ++j) {
    const double a = std::abs(values[j]);
    if (!(a <= magnitude)) magnitude = a;
  }
  return magnitude;
}

// The row's own max first, so consecutive rows' reductions overlap and
// only one max per row depends on the previous row.
double RowMagnitude(const double* row, size_t d, double magnitude) {
  double row_max = 0.0;
  for (size_t j = 0; j < d; ++j) row_max = std::max(row_max, std::abs(row[j]));
  return std::max(magnitude, row_max);
}

// Rounding margin of the interval bound (see rskyband.h). For rows with
// |p[j]| <= M and a weight point x with sum |x[j]| <= X, the reduced
// score and the reduced score difference of m = d-1 weights each run at
// most m+4 roundings over terms of total magnitude S = M (1 + 2X), resp.
// 2 S. Standard forward analysis (gamma_n = n u / (1 - n u), u = eps/2)
// bounds their errors by gamma_{m+2} S and 2 gamma_{m+4} S, so two
// interval ends and one difference are off by at most 4 gamma_{m+4} S,
// about 2 (m+4) eps S. The margin doubles that, which also absorbs the
// rounding of `hi + margin` itself; the DBL_MIN term covers gradual
// underflow. Rows whose scores could overflow (or are not finite) get an
// infinite margin: the bound then never fires and the scan is the plain
// exact one.
double IntervalMargin(double magnitude, double weight_l1, size_t m) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kTiny = std::numeric_limits<double>::min();
  constexpr double kMaxScale = std::numeric_limits<double>::max() / 16.0;
  const double scale = magnitude * (1.0 + 2.0 * weight_l1);
  if (!(scale <= kMaxScale)) return std::numeric_limits<double>::infinity();
  return 4.0 * (static_cast<double>(m) + 4.0) * (kEps * scale + kTiny);
}

// Shared scan. Visits the pool in decreasing interior-score order (ties
// by id) and counts dominators among accepted members only -- valid by
// transitivity of r-dominance, as in the classic k-skyband scan: every
// r-dominator of q scores >= q at the interior point, so it precedes q.
//
// Before any pairwise check, q is rejected when k accepted members have
// lo > hi(q) + margin: each of them then beats q by more than the rounding
// error at every point the exact predicate evaluates, so `dominates`
// would return true for all k and the exact scan rejects q too. The
// accepted set, and hence the output, is the exact scan's.
//
// The order is produced in growing batches rather than by sorting the
// whole pool: each batch is the next run of the order (a partial sort of
// the unvisited members). The bound's threshold -- the k-th largest
// accepted lo -- never decreases, so after a batch every unvisited member
// already below it is one the bound would reject at its turn; those are
// dropped before the next batch, and only the rest are ever ordered.
// Where that pays too little -- the bound is off, or a pass keeps more
// than half of the unvisited members -- the rest is sorted in one go, so
// a weak bound costs at most one partial sort over a full sort.
template <typename DominatesFn>
std::vector<int> RSkybandScan(const std::vector<int>& pool,
                              const PoolScores& scores, double margin, int k,
                              const DominatesFn& dominates) {
  const size_t kk = static_cast<size_t>(k);
  const bool bounded = std::isfinite(margin);
  // Min-heap of the k largest `lo` values among accepted members; its
  // front is the bound's threshold.
  std::vector<double> best_lo;
  const auto rejected_by_bound = [&](uint32_t oi) {
    return best_lo.size() == kk && scores.hi[oi] + margin < best_lo.front();
  };
  const auto before = [&](uint32_t a, uint32_t b) {
    if (scores.interior[a] != scores.interior[b]) {
      return scores.interior[a] > scores.interior[b];
    }
    return pool[a] < pool[b];
  };

  std::vector<uint32_t> pending(pool.size());
  std::iota(pending.begin(), pending.end(), 0u);
  std::vector<int> result;
  size_t next = 0;  // pending[0, next) has been visited
  size_t batch = bounded ? std::max<size_t>(2 * kk, 16) : pending.size();
  while (next < pending.size()) {
    const auto first = pending.begin() + static_cast<ptrdiff_t>(next);
    const size_t take = std::min(batch, pending.size() - next);
    const auto last = first + static_cast<ptrdiff_t>(take);
    if (last == pending.end()) {
      std::sort(first, last, before);
    } else {
      std::partial_sort(first, last, pending.end(), before);
    }
    for (auto it = first; it != last; ++it) {
      const uint32_t oi = *it;
      if (rejected_by_bound(oi)) continue;
      const int id = pool[oi];
      int dominators = 0;
      bool keep = true;
      for (const int s : result) {
        if (dominates(s, id) && ++dominators >= k) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      result.push_back(id);
      if (!bounded) continue;
      // A NaN lo (a row that scores NaN) joins as -inf: it bounds nothing.
      const double lo = std::isnan(scores.lo[oi])
                            ? -std::numeric_limits<double>::infinity()
                            : scores.lo[oi];
      if (best_lo.size() < kk) {
        best_lo.push_back(lo);
        std::push_heap(best_lo.begin(), best_lo.end(),
                       std::greater<double>());
      } else if (lo > best_lo.front()) {
        std::pop_heap(best_lo.begin(), best_lo.end(), std::greater<double>());
        best_lo.back() = lo;
        std::push_heap(best_lo.begin(), best_lo.end(),
                       std::greater<double>());
      }
    }
    next += take;
    const size_t unvisited = pending.size() - next;
    if (best_lo.size() == kk) {
      pending.erase(std::remove_if(pending.begin() +
                                       static_cast<ptrdiff_t>(next),
                                   pending.end(), rejected_by_bound),
                    pending.end());
    }
    const size_t kept = pending.size() - next;
    batch = 2 * kept > unvisited ? kept : 2 * batch;
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<int> FullPool(const DatasetView& data,
                          const std::vector<int>* candidates) {
  if (candidates != nullptr) return *candidates;
  std::vector<int> pool(data.size());
  std::iota(pool.begin(), pool.end(), 0);
  return pool;
}

// Pool members scored per kernel sweep: bounds the transient score matrix
// to (|V| + 1) x kScoreChunk doubles whatever the pool size.
constexpr size_t kScoreChunk = 512;

}  // namespace

std::vector<int> RSkyband(const DatasetView& data, const PrefBox& region, int k,
                          const std::vector<int>* candidates) {
  CHECK_GT(k, 0);
  CHECK_EQ(region.dim() + 1, data.dim());
  const std::vector<int> pool = FullPool(data, candidates);
  const size_t m = region.dim();
  const Vec center = region.Center();

  // One pass per member: the center score (ReducedScore's exact operation
  // order) and the closed-form box minimum and maximum, written like
  // MinScoreDiffOverBox. The sign of p[j] - p[m] is exact, so lo and hi
  // are the computed scores at the exact minimizing and maximizing
  // corners (ordered per axis, so an inverted box is handled too).
  Vec wmin(m);
  Vec wmax(m);
  double weight_l1 = 0.0;
  for (size_t j = 0; j < m; ++j) {
    wmin[j] = std::min(region.lo[j], region.hi[j]);
    wmax[j] = std::max(region.lo[j], region.hi[j]);
    const double ends[2] = {region.lo[j], region.hi[j]};
    weight_l1 += MaxAbs(ends, 2, 0.0);
  }
  PoolScores scores(pool.size());
  double magnitude = 0.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const double* p = data.Row(pool[i]);
    magnitude = RowMagnitude(p, m + 1, magnitude);
    double interior = p[m];
    double lo = p[m];
    double hi = p[m];
    for (size_t j = 0; j < m; ++j) {
      const double coeff = p[j] - p[m];
      interior += center[j] * coeff;
      lo += coeff * (coeff >= 0.0 ? wmin[j] : wmax[j]);
      hi += coeff * (coeff >= 0.0 ? wmax[j] : wmin[j]);
    }
    scores.interior[i] = interior;
    scores.lo[i] = lo;
    scores.hi[i] = hi;
  }
  return RSkybandScan(pool, scores, IntervalMargin(magnitude, weight_l1, m),
                      k, [&](int a, int b) {
                        return RDominates(data, a, b, region);
                      });
}

std::vector<int> RSkybandVertices(const DatasetView& data,
                                  const std::vector<Vec>& vertices, int k,
                                  const std::vector<int>* candidates) {
  CHECK_GT(k, 0);
  CHECK(!vertices.empty());
  CHECK_EQ(vertices[0].dim() + 1, data.dim());
  const size_t m = vertices[0].dim();
  const size_t nv = vertices.size();
  std::vector<int> pool = FullPool(data, candidates);
  if (pool.empty()) return {};
  // The kernel wants ascending ids; the scan order depends only on
  // (score, id), so sorting the pool cannot change the output.
  if (!std::is_sorted(pool.begin(), pool.end())) {
    std::sort(pool.begin(), pool.end());
  }

  // Sweep points: the vertices, then the centroid as the last row (its
  // score row fixes the scan order).
  std::vector<double> points;
  points.reserve((nv + 1) * m);
  Vec interior(m);
  double weight_l1 = 0.0;
  for (const Vec& v : vertices) {
    points.insert(points.end(), v.begin(), v.end());
    interior += v;
    double l1 = 0.0;
    for (size_t j = 0; j < m; ++j) l1 += std::abs(v[j]);
    weight_l1 = MaxAbs(&l1, 1, weight_l1);
  }
  interior /= static_cast<double>(nv);
  points.insert(points.end(), interior.begin(), interior.end());

  // Kernel sweeps are bit-identical to ReducedScore, so the interior row
  // reproduces the reference order exactly and lo / hi are the computed
  // vertex scores the bound reasons about. The arena lives for this call
  // only.
  PoolScores scores(pool.size());
  double magnitude = 0.0;
  ScoreArena arena;
  ScoreKernel kernel(arena);
  std::vector<int> chunk;
  for (size_t begin = 0; begin < pool.size(); begin += kScoreChunk) {
    const size_t end = std::min(pool.size(), begin + kScoreChunk);
    chunk.assign(pool.begin() + begin, pool.begin() + end);
    kernel.LoadBlock(data, chunk);
    kernel.ScoreVertices(points.data(), nv + 1, nullptr);
    const size_t count = end - begin;
    double* lo = scores.lo.data() + begin;
    double* hi = scores.hi.data() + begin;
    std::copy_n(kernel.Scores(0), count, lo);
    std::copy_n(kernel.Scores(0), count, hi);
    for (size_t v = 1; v < nv; ++v) {
      const double* row = kernel.Scores(v);
      for (size_t c = 0; c < count; ++c) {
        lo[c] = std::min(lo[c], row[c]);
        hi[c] = std::max(hi[c], row[c]);
      }
    }
    std::copy_n(kernel.Scores(nv), count, scores.interior.data() + begin);
    for (const int id : chunk) {
      magnitude = RowMagnitude(data.Row(id), m + 1, magnitude);
    }
  }
  return RSkybandScan(pool, scores, IntervalMargin(magnitude, weight_l1, m),
                      k, [&](int a, int b) {
                        return RDominatesVertices(data, a, b, vertices);
                      });
}

}  // namespace toprr
