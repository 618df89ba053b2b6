// Reference r-skyband scan without the interval bound: every candidate,
// in decreasing interior-score order (ties by id), goes through the exact
// pairwise predicate against the members accepted so far. The library's
// interval-bounded scan (topk/rskyband.cc) must return exactly these ids;
// rskyband_test diffs the two and bench_fig8_filters times the library
// scan against this one.
#ifndef TOPRR_TESTS_RSKYBAND_REFERENCE_H_
#define TOPRR_TESTS_RSKYBAND_REFERENCE_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "data/dataset.h"
#include "pref/pref_space.h"
#include "topk/rskyband.h"

namespace toprr {
namespace reference {

template <typename DominatesFn>
std::vector<int> RSkybandScan(const DatasetView& data,
                              const std::vector<int>& pool,
                              const Vec& interior, int k,
                              const DominatesFn& dominates) {
  std::vector<double> interior_score(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    interior_score[i] = ReducedScore(data.Row(pool[i]), interior);
  }
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (interior_score[a] != interior_score[b]) {
      return interior_score[a] > interior_score[b];
    }
    return pool[a] < pool[b];
  });
  std::vector<int> result;
  for (size_t oi : order) {
    const int id = pool[oi];
    int dominators = 0;
    bool keep = true;
    for (int s : result) {
      if (dominates(s, id) && ++dominators >= k) {
        keep = false;
        break;
      }
    }
    if (keep) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

inline std::vector<int> RSkyband(const DatasetView& data, const PrefBox& box,
                                 int k, const std::vector<int>& pool) {
  return RSkybandScan(data, pool, box.Center(), k, [&](int a, int b) {
    return RDominates(data, a, b, box);
  });
}

inline std::vector<int> RSkybandVertices(const DatasetView& data,
                                         const std::vector<Vec>& vertices,
                                         int k,
                                         const std::vector<int>& pool) {
  Vec interior(vertices[0].dim());
  for (const Vec& v : vertices) interior += v;
  interior /= static_cast<double>(vertices.size());
  return RSkybandScan(data, pool, interior, k, [&](int a, int b) {
    return RDominatesVertices(data, a, b, vertices);
  });
}

}  // namespace reference
}  // namespace toprr

#endif  // TOPRR_TESTS_RSKYBAND_REFERENCE_H_
