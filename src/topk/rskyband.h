// r-skyband filtering (Ciaccia & Martinenghi [14]; paper Sec. 6.3).
//
// Option p r-dominates option q w.r.t. a preference region wR when p
// scores at least as high as q for every w in wR (strictly somewhere).
// For a convex wR this reduces to score comparisons at wR's vertices
// (Lemma 1); for the axis-aligned boxes of the evaluation it collapses
// further to a closed-form per-coordinate minimization.
//
// The r-skyband (options r-dominated by fewer than k others) is a superset
// of the top-k result of every w in wR -- the filter the paper selects for
// all TopRR methods (Fig. 8).
//
// The scan. Members are visited in decreasing score at an interior point
// of wR (ties by id); each is kept unless k already-kept members
// r-dominate it (RDominates / RDominatesVertices, the exact predicate).
// Most candidates never reach that pairwise check: every member first
// gets a score interval [lo, hi] over wR -- the closed-form box minimum
// and maximum, or the min and max of its scores at the polytope's
// vertices from one ScoreKernel sweep (bit-identical to ReducedScore; the
// sweep's last row is the interior point, which fixes the order). Once k
// kept members have lo > hi(q) + margin, q is rejected outright.
//
// The margin. `margin` bounds the floating-point error of the computed
// intervals and of the predicate's computed score differences. For rows
// with |p[j]| <= M and weight points with sum |x[j]| <= X it is
// 4 (m + 4) eps M (1 + 2X), twice a standard forward-error bound on two
// interval ends plus one difference (m = d - 1; see IntervalMargin). It
// scales with the pool's rows, so staged rows outside [0,1] keep it
// sound; where scores could overflow or a weight is not finite it is
// infinite and the bound is off.
//
// Why the output is identical. If k kept members s have
// lo(s) > hi(q) + margin, each beats q by more than the rounding error at
// every point the predicate evaluates, so the predicate returns true for
// all k and the plain scan rejects q as well. A rejection changes no state
// and the visit order is unchanged, so the kept set -- and the returned id
// vector -- is the plain scan's, bit for bit. The threshold (the k-th
// largest kept lo) only grows, so members already below it are dropped in
// bulk instead of being ordered; where the bound is off or drops too few
// members, the rest of the pool is sorted once instead. Scratch is per
// call: nothing pool-sized outlives it.
#ifndef TOPRR_TOPK_RSKYBAND_H_
#define TOPRR_TOPK_RSKYBAND_H_

#include <vector>

#include "data/dataset.h"
#include "pref/pref_space.h"

namespace toprr {

/// True if option a r-dominates option b over the preference box: the
/// minimum of S_x(a) - S_x(b) over the box is >= 0 and the maximum > 0.
/// Exact duplicates (identical rows) are ordered by id so that duplicate
/// blocks cannot inflate the r-skyband.
bool RDominates(const DatasetView& data, int a, int b, const PrefBox& region);

/// The r-skyband of the dataset: ids of options r-dominated by fewer than
/// k others, sorted ascending. `candidates` optionally restricts the
/// computation to a known superset (e.g. the k-skyband) -- by transitivity
/// the result is unchanged.
std::vector<int> RSkyband(const DatasetView& data, const PrefBox& region, int k,
                          const std::vector<int>* candidates = nullptr);

/// General-polytope variant: r-dominance over an arbitrary convex wR given
/// by its vertex set (Lemma 1: a linear score difference is minimized at a
/// vertex). Used for the paper's general convex-polytope preference
/// regions (Sec. 3.1).
bool RDominatesVertices(const DatasetView& data, int a, int b,
                        const std::vector<Vec>& vertices);

std::vector<int> RSkybandVertices(const DatasetView& data,
                                  const std::vector<Vec>& vertices, int k,
                                  const std::vector<int>* candidates =
                                      nullptr);

}  // namespace toprr

#endif  // TOPRR_TOPK_RSKYBAND_H_
