#include "topk/rskyband.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "pref/region.h"
#include "rskyband_reference.h"
#include "topk/skyband.h"
#include "topk/topk.h"

namespace toprr {
namespace {

PrefBox Box2D(double lo0, double lo1, double hi0, double hi1) {
  PrefBox box;
  box.lo = Vec{lo0, lo1};
  box.hi = Vec{hi0, hi1};
  return box;
}

TEST(RDominatesTest, BasicProperties) {
  const Dataset ds = Dataset::FromRows({
      Vec{0.9, 0.9, 0.9},  // 0: dominates everything
      Vec{0.5, 0.5, 0.5},  // 1
      Vec{0.5, 0.5, 0.5},  // 2: duplicate of 1
      Vec{0.9, 0.1, 0.1},  // 3: incomparable with 1 in general
  });
  const PrefBox box = Box2D(0.2, 0.2, 0.3, 0.3);
  EXPECT_TRUE(RDominates(ds, 0, 1, box));
  EXPECT_FALSE(RDominates(ds, 1, 0, box));
  EXPECT_FALSE(RDominates(ds, 1, 1, box));
  // Duplicates: exactly one direction (by id).
  EXPECT_TRUE(RDominates(ds, 1, 2, box));
  EXPECT_FALSE(RDominates(ds, 2, 1, box));
  // Region-specific: option 3 is strong only when w[0] is large; in this
  // battery-leaning box option 1 r-dominates it.
  // S_x(1) - S_x(3) = 0.4 - 0.4 x0 + 0.4 x1 ... compute: p1 - p3 =
  // (-0.4, 0.4, 0.4); diff(x) = 0.4 + x0*(-0.4-0.4) + x1*(0.4-0.4)
  //                           = 0.4 - 0.8 x0 > 0 for x0 <= 0.3.
  EXPECT_TRUE(RDominates(ds, 1, 3, box));
  EXPECT_FALSE(RDominates(ds, 3, 1, box));
}

TEST(RDominatesTest, ImpliesDominanceIsSpecialCase) {
  // Componentwise dominance implies r-dominance for any box.
  const Dataset ds = GenerateSynthetic(100, 3, Distribution::kIndependent,
                                       60);
  Rng rng(61);
  const PrefBox box = Box2D(0.1, 0.2, 0.25, 0.35);
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.UniformInt(0, 99));
    const int b = static_cast<int>(rng.UniformInt(0, 99));
    if (a != b && Dominates(ds, a, b)) {
      EXPECT_TRUE(RDominates(ds, a, b, box));
    }
  }
}

TEST(RSkybandTest, SubsetOfKSkyband) {
  const Dataset ds = GenerateSynthetic(600, 3,
                                       Distribution::kAnticorrelated, 62);
  const PrefBox box = Box2D(0.2, 0.2, 0.26, 0.26);
  for (int k : {1, 3, 8}) {
    const std::vector<int> rsky = RSkyband(ds, box, k);
    const std::vector<int> sky = SortBasedKSkyband(ds, k);
    for (int id : rsky) {
      EXPECT_TRUE(std::binary_search(sky.begin(), sky.end(), id));
    }
    EXPECT_LE(rsky.size(), sky.size());
  }
}

TEST(RSkybandTest, CandidateRestrictionGivesSameResult) {
  const Dataset ds = GenerateSynthetic(600, 3, Distribution::kIndependent,
                                       63);
  const PrefBox box = Box2D(0.15, 0.2, 0.22, 0.27);
  const int k = 5;
  const std::vector<int> sky = SortBasedKSkyband(ds, k);
  const std::vector<int> direct = RSkyband(ds, box, k);
  const std::vector<int> via_sky = RSkyband(ds, box, k, &sky);
  EXPECT_EQ(direct, via_sky);
}

TEST(RSkybandTest, ContainsEveryTopKInBox) {
  const Dataset ds = GenerateSynthetic(500, 4, Distribution::kIndependent,
                                       64);
  PrefBox box;
  box.lo = Vec{0.1, 0.2, 0.15};
  box.hi = Vec{0.16, 0.26, 0.21};
  const int k = 6;
  const std::vector<int> rsky = RSkyband(ds, box, k);
  EXPECT_GE(rsky.size(), static_cast<size_t>(k));
  Rng rng(65);
  for (int trial = 0; trial < 100; ++trial) {
    Vec x(3);
    for (size_t j = 0; j < 3; ++j) {
      x[j] = rng.Uniform(box.lo[j], box.hi[j]);
    }
    const TopkResult topk = ComputeTopK(ds, FullWeight(x), k);
    for (const ScoredOption& e : topk.entries) {
      EXPECT_TRUE(std::binary_search(rsky.begin(), rsky.end(), e.id))
          << "lost top-k member " << e.id;
    }
  }
}

TEST(RSkybandTest, MatchesBruteForceCount) {
  // Brute-force r-skyband over all pairs must agree.
  const Dataset ds = GenerateSynthetic(150, 3, Distribution::kIndependent,
                                       66);
  const PrefBox box = Box2D(0.25, 0.3, 0.3, 0.35);
  for (int k : {1, 2, 4}) {
    std::vector<int> brute;
    for (size_t i = 0; i < ds.size(); ++i) {
      int dominators = 0;
      for (size_t j = 0; j < ds.size(); ++j) {
        if (i != j && RDominates(ds, static_cast<int>(j),
                                 static_cast<int>(i), box)) {
          ++dominators;
        }
      }
      if (dominators < k) brute.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(RSkyband(ds, box, k), brute) << "k=" << k;
  }
}

TEST(RSkybandTest, SmallerBoxPrunesMore) {
  const Dataset ds = GenerateSynthetic(800, 3,
                                       Distribution::kAnticorrelated, 67);
  const std::vector<int> narrow =
      RSkyband(ds, Box2D(0.2, 0.2, 0.22, 0.22), 5);
  const std::vector<int> wide = RSkyband(ds, Box2D(0.1, 0.1, 0.4, 0.4), 5);
  EXPECT_LE(narrow.size(), wide.size());
  // Every narrow member is a wide member (larger region = weaker
  // dominance requirement... actually the converse; just check sizes).
}

// ---- Differential test of the interval-bounded scan against the
// reference scan (rskyband_reference.h) and the all-pairs count. ----

std::vector<int> AllIds(const DatasetView& data) {
  std::vector<int> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// All-pairs definition: ids r-dominated by fewer than k others. The scan
// counts dominators among accepted members only, which equals this count
// when the computed predicate is transitive. On rows a few ulps apart it
// need not be (each pair's score differences round independently), and
// the scan may then keep an option the all-pairs count drops -- a
// superset, which is all the filter promises.
template <typename DominatesFn>
std::vector<int> BruteForceRSkyband(size_t n, int k,
                                    const DominatesFn& dominates) {
  std::vector<int> out;
  for (size_t i = 0; i < n; ++i) {
    int dominators = 0;
    for (size_t j = 0; j < n && dominators < k; ++j) {
      if (i != j && dominates(static_cast<int>(j), static_cast<int>(i))) {
        ++dominators;
      }
    }
    if (dominators < k) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<Vec> RowsOf(const Dataset& ds) {
  std::vector<Vec> rows;
  for (size_t i = 0; i < ds.size(); ++i) {
    rows.emplace_back(std::vector<double>(ds.Row(i), ds.Row(i) + ds.dim()));
  }
  return rows;
}

// Table variants that stress the margin and the id tie-break.
enum class Variant { kPlain, kDuplicates, kOneUlp, kOutOfRange };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kDuplicates: return "duplicates";
    case Variant::kOneUlp: return "one_ulp";
    case Variant::kOutOfRange: return "out_of_range";
  }
  return "?";
}

Dataset MakeTable(size_t n, size_t d, Distribution dist, Variant variant,
                  uint64_t seed) {
  std::vector<Vec> rows = RowsOf(GenerateSynthetic(n, d, dist, seed));
  Rng rng(seed + 1);
  switch (variant) {
    case Variant::kPlain:
      break;
    case Variant::kDuplicates:
      // Copies (some repeated) of random rows, interleaved by position so
      // duplicate blocks straddle ids in both directions.
      for (size_t c = 0; c < n / 3; ++c) {
        const Vec copy = rows[rng.UniformInt(0, n - 1)];
        for (size_t r = 0; r < 1 + c % 3; ++r) {
          const int64_t at = rng.UniformInt(0, rows.size());
          rows.insert(rows.begin() + at, copy);
        }
      }
      break;
    case Variant::kOneUlp:
      // Near-duplicates one ulp apart in one coordinate, up or down.
      for (size_t c = 0; c < n / 2; ++c) {
        Vec row = rows[rng.UniformInt(0, n - 1)];
        const size_t j = rng.UniformInt(0, d - 1);
        row[j] = std::nextafter(row[j], (c % 2 == 0) ? 2.0 : -2.0);
        rows.push_back(std::move(row));
      }
      break;
    case Variant::kOutOfRange:
      // Affine maps far outside [0,1]: large, negative and tiny rows.
      for (size_t i = 0; i < rows.size(); ++i) {
        const double scale = (i % 3 == 0) ? 4.0e6 : (i % 3 == 1) ? 1e-9 : 37.0;
        const double shift = (i % 2 == 0) ? -1.5e3 : 0.0;
        for (size_t j = 0; j < d; ++j) rows[i][j] = rows[i][j] * scale + shift;
      }
      // Plus exact and one-ulp copies of scaled rows.
      for (size_t c = 0; c < n / 4; ++c) {
        Vec row = rows[rng.UniformInt(0, n - 1)];
        if (c % 2 == 1) row[c % d] = std::nextafter(row[c % d], 1e300);
        rows.push_back(std::move(row));
      }
      break;
  }
  return Dataset::FromRows(rows);
}

// A general polytope: the box region split through its center by a
// random hyperplane; returns the non-empty pieces.
std::vector<PrefRegion> SplitPieces(const PrefBox& box, Rng& rng) {
  const size_t m = box.dim();
  Vec normal(m);
  for (size_t j = 0; j < m; ++j) normal[j] = rng.Uniform(-1.0, 1.0);
  normal[0] += 0.5;  // never all-zero
  const Vec center = box.Center();
  double offset = 0.0;
  for (size_t j = 0; j < m; ++j) offset += normal[j] * center[j];
  PrefRegionSplit split =
      PrefRegion::FromBox(box).Split(Hyperplane(normal, offset));
  std::vector<PrefRegion> pieces;
  if (split.below.has_value() && !split.below->empty()) {
    pieces.push_back(std::move(*split.below));
  }
  if (split.above.has_value() && !split.above->empty()) {
    pieces.push_back(std::move(*split.above));
  }
  return pieces;
}

// A box with lo == hi (a single preference point) or one-ulp sides:
// score intervals collapse, so only the margin keeps near-ties exact.
PrefBox ThinBox(size_t m, Rng& rng, bool point) {
  PrefBox box;
  box.lo = Vec(m);
  box.hi = Vec(m);
  for (size_t j = 0; j < m; ++j) {
    box.lo[j] = rng.Uniform(0.0, 0.9 / static_cast<double>(m));
    box.hi[j] = point ? box.lo[j] : std::nextafter(box.lo[j], 1.0);
  }
  return box;
}

// Exact all-pairs agreement where the computed predicate is transitive;
// containment where near-equal rows may break transitivity.
void ExpectMatchesBruteForce(const std::vector<int>& scan,
                             const std::vector<int>& brute, Variant variant) {
  if (variant == Variant::kPlain || variant == Variant::kDuplicates) {
    EXPECT_EQ(scan, brute);
  } else {
    EXPECT_TRUE(std::includes(scan.begin(), scan.end(), brute.begin(),
                              brute.end()));
  }
}

struct DiffCase {
  Distribution dist;
  size_t d;
  Variant variant;
};

class RSkybandDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(RSkybandDifferential, MatchesReferenceAndBruteForce) {
  const DiffCase& param = GetParam();
  const size_t n = 160;
  const uint64_t seed =
      1000 + 97 * param.d + 13 * static_cast<uint64_t>(param.dist) +
      7 * static_cast<uint64_t>(param.variant);
  const Dataset ds = MakeTable(n, param.d, param.dist, param.variant, seed);
  const DatasetView view(ds);
  const size_t m = param.d - 1;
  const std::vector<int> all = AllIds(view);
  Rng rng(seed + 2);

  std::vector<PrefBox> boxes;
  for (double sigma : {0.01, 0.08}) {
    boxes.push_back(RandomPrefBox(m, sigma, rng));
  }
  boxes.push_back(ThinBox(m, rng, /*point=*/true));
  boxes.push_back(ThinBox(m, rng, /*point=*/false));

  size_t compared = 0;
  for (const int k : {1, 5, 10, 20}) {
    // The k-skyband is the engine's candidate pool; the full table is
    // the free path's.
    const std::vector<int> sky = SortBasedKSkyband(view, k);
    for (size_t b = 0; b < boxes.size(); ++b) {
      const PrefBox& box = boxes[b];
      SCOPED_TRACE("k=" + std::to_string(k) + " box=" + std::to_string(b));
      const std::vector<int> full = RSkyband(view, box, k);
      EXPECT_EQ(full, reference::RSkyband(view, box, k, all));
      ExpectMatchesBruteForce(
          full,
          BruteForceRSkyband(view.size(), k,
                             [&](int a, int c) {
                               return RDominates(view, a, c, box);
                             }),
          param.variant);
      EXPECT_EQ(RSkyband(view, box, k, &sky),
                reference::RSkyband(view, box, k, sky));

      // General polytopes through the vertex path: the box itself and
      // both pieces of a split through its center.
      std::vector<std::vector<Vec>> polytopes = {box.Vertices()};
      for (const PrefRegion& piece : SplitPieces(box, rng)) {
        polytopes.push_back(piece.vertices());
      }
      for (const std::vector<Vec>& vertices : polytopes) {
        const std::vector<int> vfull = RSkybandVertices(view, vertices, k);
        EXPECT_EQ(vfull, reference::RSkybandVertices(view, vertices, k, all));
        ExpectMatchesBruteForce(
            vfull,
            BruteForceRSkyband(view.size(), k,
                               [&](int a, int c) {
                                 return RDominatesVertices(view, a, c,
                                                           vertices);
                               }),
            param.variant);
        EXPECT_EQ(RSkybandVertices(view, vertices, k, &sky),
                  reference::RSkybandVertices(view, vertices, k, sky));
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 16u);
}

std::vector<DiffCase> AllDiffCases() {
  std::vector<DiffCase> cases;
  for (Distribution dist : {Distribution::kIndependent,
                            Distribution::kCorrelated,
                            Distribution::kAnticorrelated}) {
    for (size_t d = 2; d <= 6; ++d) {
      for (Variant variant : {Variant::kPlain, Variant::kDuplicates,
                              Variant::kOneUlp, Variant::kOutOfRange}) {
        cases.push_back({dist, d, variant});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllTables, RSkybandDifferential, ::testing::ValuesIn(AllDiffCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(DistributionName(info.param.dist)) + "_d" +
             std::to_string(info.param.d) + "_" +
             VariantName(info.param.variant);
    });

TEST(RSkybandTest, PointBoxNearTiesMatchReference) {
  // On a point box each score interval collapses to one value, so one-ulp
  // neighbours sit within rounding error of each other: only the margin
  // keeps the bound from rejecting what the exact predicate keeps.
  for (uint64_t seed = 0; seed < 60; ++seed) {
    const size_t d = 3 + seed % 4;
    const Dataset ds = MakeTable(60, d, Distribution::kCorrelated,
                                 Variant::kOneUlp, 500 + seed);
    const DatasetView view(ds);
    Rng rng(seed);
    const PrefBox box = ThinBox(d - 1, rng, /*point=*/true);
    for (const int k : {1, 2, 3}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" +
                   std::to_string(k));
      EXPECT_EQ(RSkyband(view, box, k),
                reference::RSkyband(view, box, k, AllIds(view)));
      EXPECT_EQ(RSkybandVertices(view, box.Vertices(), k),
                reference::RSkybandVertices(view, box.Vertices(), k,
                                          AllIds(view)));
    }
  }
}

TEST(RSkybandTest, RoundingNearTiesNeedTheMargin) {
  // Pairs where the computed scores order s above q at a point while the
  // computed difference S(s) - S(q) there is <= 0: s does not r-dominate
  // q, so both stay in the 1-skyband. A bound without the rounding margin
  // would reject q from the score order alone.
  Rng rng(91);
  int pairs = 0;
  for (int trial = 0; trial < 20000 && pairs < 40; ++trial) {
    const size_t d = 3 + static_cast<size_t>(trial % 4);
    const size_t m = d - 1;
    Vec q(d);
    for (size_t j = 0; j < d; ++j) q[j] = rng.Uniform();
    if (trial % 3 == 0) q *= 1e4;  // larger rows, larger rounding
    Vec s = q;
    const size_t j = static_cast<size_t>(rng.UniformInt(0, d - 1));
    for (int step = 0; step < 1 + trial % 4; ++step) {
      s[j] = std::nextafter(s[j], rng.Uniform() < 0.5 ? -1e9 : 1e9);
    }
    PrefBox box;
    box.lo = Vec(m);
    for (size_t i = 0; i < m; ++i) {
      box.lo[i] = rng.Uniform(0.0, 0.9 / static_cast<double>(m));
    }
    box.hi = box.lo;
    if (!(ReducedScore(s.data(), box.lo) > ReducedScore(q.data(), box.lo) &&
          ReducedScoreDiff(s.data(), q.data(), box.lo) <= 0.0)) {
      continue;
    }
    ++pairs;
    // q gets the lower id, so an exactly zero difference does not let s
    // dominate q through the id tie-break either.
    const Dataset ds = Dataset::FromRows({q, s});
    const std::vector<int> both = {0, 1};
    EXPECT_EQ(reference::RSkyband(ds, box, 1, both), both);
    EXPECT_EQ(RSkyband(ds, box, 1), both) << "trial " << trial;
    // The vertex path orders by the centroid of the 2^m equal corners,
    // whose rounding may put q first; it must still match its reference.
    EXPECT_EQ(RSkybandVertices(ds, box.Vertices(), 1),
              reference::RSkybandVertices(ds, box.Vertices(), 1, both))
        << "trial " << trial;
  }
  EXPECT_GE(pairs, 20);
}

TEST(RSkybandTest, LargePoolMatchesReference) {
  // A pool larger than one kernel sweep block, scored in several blocks,
  // and an unsorted candidate list.
  const Dataset ds =
      GenerateSynthetic(9000, 4, Distribution::kAnticorrelated, 71);
  const DatasetView view(ds);
  Rng rng(72);
  const PrefBox box = RandomPrefBox(3, 0.05, rng);
  std::vector<int> pool = AllIds(view);
  std::reverse(pool.begin(), pool.end());
  for (const int k : {1, 10}) {
    EXPECT_EQ(RSkybandVertices(view, box.Vertices(), k, &pool),
              reference::RSkybandVertices(view, box.Vertices(), k,
                                          AllIds(view)));
    EXPECT_EQ(RSkyband(view, box, k, &pool),
              reference::RSkyband(view, box, k, AllIds(view)));
  }
}

TEST(RSkybandTest, WeakOrDisabledBoundMatchesReference) {
  // A wide box keeps most members inside the bound's reach, so the scan
  // orders the rest in one sort; rows near the overflow limit make the
  // margin infinite, so the bound is off and every candidate is checked.
  const Dataset ds =
      GenerateSynthetic(3000, 4, Distribution::kIndependent, 73);
  Dataset huge = ds;
  for (size_t i = 0; i < huge.size(); ++i) {
    for (size_t j = 0; j < huge.dim(); ++j) {
      huge.At(i, j) = std::ldexp(huge.At(i, j), 1020);
    }
  }
  Rng rng(74);
  const PrefBox wide = RandomPrefBox(3, 0.3, rng);
  const PrefBox narrow = RandomPrefBox(3, 0.01, rng);
  const Dataset* tables[] = {&ds, &huge};
  for (const Dataset* table : tables) {
    const DatasetView view(*table);
    for (const PrefBox* box : {&wide, &narrow}) {
      for (const int k : {1, 10}) {
        EXPECT_EQ(RSkyband(view, *box, k),
                  reference::RSkyband(view, *box, k, AllIds(view)));
        EXPECT_EQ(RSkybandVertices(view, box->Vertices(), k),
                  reference::RSkybandVertices(view, box->Vertices(), k,
                                              AllIds(view)));
      }
    }
  }
}

}  // namespace
}  // namespace toprr
