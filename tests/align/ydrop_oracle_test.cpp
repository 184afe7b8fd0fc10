// The y-drop row core against a brute-force oracle, at its boundary cases.
//
// The oracle fills the whole (m+1) x (n+1) Gotoh matrix in row-major order
// and applies hard pruning cell by cell: a cell is viable when its S is
// finite and at least the cutoff, and a pruned cell holds -infinity in all
// three states. The cutoff is `best - ydrop`, where `best` is
//   * sequential: the best viable cell so far, moving cell by cell;
//   * conservative: the best cell of the completed rows, frozen per row.
// It shares no code with the row core: no interval tracking, no early
// break, no insertion-run bound, no vector phase. So a wrong comparison at a
// row edge or at the cutoff shows as a different best cell or row interval.
//
// The cases put scores exactly on the cutoff: y-drops of |gap_open| +
// k·|gap_extend| (LASTZ scores, up to the paper's Y = 9400; unit scores),
// related and homopolymer pairs whose runs of equal scores meet it, and
// random pairs. Every case runs all four row-core instantiations
// (traceback on/off x prune mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/ydrop_align.hpp"
#include "testing/test_sequences.hpp"
#include "util/prng.hpp"

namespace fastz {
namespace {

struct OracleResult {
  BestCell best;
  std::vector<RowBounds> row_bounds;  // rows 0.. up to the last viable row
};

Score add_saturating(Score base, Score delta) {
  return base <= kNegativeInfinity ? kNegativeInfinity : base + delta;
}

OracleResult brute_ydrop(std::span<const BaseCode> a, std::span<const BaseCode> b,
                         const ScoreParams& p, PruneMode prune) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const auto at = [n](std::size_t i, std::size_t j) { return i * (n + 1) + j; };
  std::vector<Score> S((m + 1) * (n + 1), kNegativeInfinity);
  std::vector<Score> I(S.size(), kNegativeInfinity);
  std::vector<Score> D(S.size(), kNegativeInfinity);
  const Score open = p.gap_open + p.gap_extend;

  OracleResult r;
  r.best = BestCell{0, 0, 0};
  S[at(0, 0)] = 0;
  r.row_bounds.push_back({0, 1});  // row 0 grows below as its run survives
  for (std::size_t i = 0; i <= m; ++i) {
    const BestCell completed = r.best;
    bool any = i == 0;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    for (std::size_t j = (i == 0 ? 1 : 0); j <= n; ++j) {
      const Score diag = (i > 0 && j > 0)
                             ? add_saturating(S[at(i - 1, j - 1)],
                                              p.substitution(a[i - 1], b[j - 1]))
                             : kNegativeInfinity;
      const Score ins = j > 0 ? std::max(add_saturating(S[at(i, j - 1)], open),
                                         add_saturating(I[at(i, j - 1)], p.gap_extend))
                              : kNegativeInfinity;
      const Score del = i > 0 ? std::max(add_saturating(S[at(i - 1, j)], open),
                                         add_saturating(D[at(i - 1, j)], p.gap_extend))
                              : kNegativeInfinity;
      const Score s = std::max({diag, ins, del});
      const Score cutoff =
          (prune == PruneMode::kSequential ? r.best.score : completed.score) - p.ydrop;
      if (s <= kNegativeInfinity || s < cutoff) continue;  // pruned: stays -inf
      S[at(i, j)] = s;
      I[at(i, j)] = ins;
      D[at(i, j)] = del;
      r.best.consider(s, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      if (!any) first = static_cast<std::uint32_t>(j);
      any = true;
      last = static_cast<std::uint32_t>(j);
    }
    if (!any) break;
    if (i == 0) {
      r.row_bounds[0].hi = last + 1;
    } else {
      r.row_bounds.push_back({first, last + 1});
    }
  }
  return r;
}

struct OracleCase {
  std::string label;
  Sequence a;
  Sequence b;
  ScoreParams params;
};

ScoreParams lastz_with_ydrop(Score ydrop) {
  ScoreParams p = lastz_default_params();
  p.ydrop = ydrop;
  return p;
}

// A run of `base` with a substitution every `period` bases (0: none).
Sequence homopolymer(std::size_t length, BaseCode base, std::size_t period,
                     const std::string& name) {
  std::vector<BaseCode> codes(length, base);
  if (period != 0) {
    for (std::size_t k = period - 1; k < length; k += period) {
      codes[k] = static_cast<BaseCode>((base + 1) % 4);
    }
  }
  return Sequence(name, std::move(codes));
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  Xoshiro256 rng(0x5eed0);
  const auto length = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
  };
  const ScoreParams lastz = lastz_default_params();
  const Score lastz_open = -lastz.gap_open;
  const Score lastz_extend = -lastz.gap_extend;

  // LASTZ scores: y-drops on the |gap_open| + k·|gap_extend| lattice, where
  // row 0's insertion run and every row's trailing run end exactly on the
  // cutoff, plus the harness's Y = 2000 off the lattice.
  std::uint64_t seed = 100;
  for (const std::uint32_t k : {0u, 1u, 7u, 40u, 100u}) {
    const Score y = lastz_open + static_cast<Score>(k) * lastz_extend;
    for (int rep = 0; rep < 3; ++rep) {
      auto [a, b] = testing::related_pair(length(60, 200), 0.85, ++seed, 0.02);
      cases.push_back({"lastz related Y=" + std::to_string(y), std::move(a), std::move(b),
                       lastz_with_ydrop(y)});
      cases.push_back({"lastz random Y=" + std::to_string(y),
                       testing::random_dna(length(40, 160), ++seed),
                       testing::random_dna(length(40, 160), ++seed), lastz_with_ydrop(y)});
    }
  }
  // The paper's Y = 9400 is the lattice point k = 300: row 0 reaches the
  // cutoff at column 300, so B is at least that long.
  for (int rep = 0; rep < 3; ++rep) {
    auto [a, b] = testing::related_pair(length(300, 320), 0.75, ++seed, 0.02);
    cases.push_back({"lastz related Y=9400", std::move(a), std::move(b),
                     lastz_with_ydrop(9400)});
    cases.push_back({"lastz random Y=9400", testing::random_dna(length(40, 120), ++seed),
                     testing::random_dna(length(300, 320), ++seed), lastz_with_ydrop(9400)});
  }
  for (int rep = 0; rep < 3; ++rep) {
    auto [a, b] = testing::related_pair(length(150, 300), 0.8, ++seed, 0.01);
    cases.push_back({"lastz related Y=2000", std::move(a), std::move(b),
                     lastz_with_ydrop(2000)});
  }

  // Unit scores (+1/-1, open 3, extend 1): every score is a small integer,
  // so cells land on the cutoff all over the matrix.
  for (Score y = 0; y <= 12; ++y) {
    const ScoreParams p = test_params(y);
    auto [ra, rb] = testing::related_pair(length(30, 300), 0.7, ++seed, 0.05);
    cases.push_back({"unit related Y=" + std::to_string(y), std::move(ra), std::move(rb), p});
    cases.push_back({"unit random Y=" + std::to_string(y),
                     testing::random_dna(length(20, 300), ++seed),
                     testing::random_dna(length(20, 300), ++seed), p});
    const BaseCode base = static_cast<BaseCode>(y % 4);
    cases.push_back({"unit homopolymer Y=" + std::to_string(y),
                     homopolymer(length(20, 200), base, 0, "h"),
                     homopolymer(length(20, 200), base, 5 + y % 4, "hs"), p});
  }

  // Homopolymers under LASTZ scores: long equal-score diagonals, runs that
  // break at a fixed period, and a run against a different base.
  for (const std::uint32_t k : {3u, 10u, 60u}) {
    const ScoreParams p = lastz_with_ydrop(lastz_open + static_cast<Score>(k) * lastz_extend);
    const std::string y = std::to_string(p.ydrop);
    cases.push_back({"lastz homopolymer Y=" + y, homopolymer(length(50, 250), 0, 0, "h"),
                     homopolymer(length(50, 250), 0, 0, "h2"), p});
    cases.push_back({"lastz periodic Y=" + y, homopolymer(length(50, 250), 2, 7, "p"),
                     homopolymer(length(50, 250), 2, 11, "p2"), p});
    cases.push_back({"lastz mismatched run Y=" + y, homopolymer(length(20, 100), 1, 0, "c"),
                     homopolymer(length(20, 100), 3, 0, "t"), p});
  }
  return cases;
}

TEST(YdropOracle, RowCoreMatchesBruteForceUnderEveryInstantiation) {
  const std::vector<OracleCase> cases = oracle_cases();
  ASSERT_GE(cases.size(), 80u);
  for (const OracleCase& c : cases) {
    for (const PruneMode prune : {PruneMode::kSequential, PruneMode::kConservative}) {
      const OracleResult want = brute_ydrop(c.a.codes(), c.b.codes(), c.params, prune);
      for (const bool traceback : {false, true}) {
        OneSidedOptions opts;
        opts.prune = prune;
        opts.want_traceback = traceback;
        opts.record_row_bounds = true;
        const OneSidedResult got =
            ydrop_one_sided_align(c.a.codes(), c.b.codes(), c.params, opts);
        const std::string label =
            c.label + (prune == PruneMode::kSequential ? " sequential" : " conservative") +
            (traceback ? " traced" : " score-only") + " m=" + std::to_string(c.a.size()) +
            " n=" + std::to_string(c.b.size());
        EXPECT_EQ(got.best.score, want.best.score) << label;
        EXPECT_EQ(got.best.i, want.best.i) << label;
        EXPECT_EQ(got.best.j, want.best.j) << label;
        ASSERT_EQ(got.row_bounds.size(), want.row_bounds.size()) << label;
        for (std::size_t r = 0; r < want.row_bounds.size(); ++r) {
          ASSERT_EQ(got.row_bounds[r].lo, want.row_bounds[r].lo) << label << " row " << r;
          ASSERT_EQ(got.row_bounds[r].hi, want.row_bounds[r].hi) << label << " row " << r;
        }
      }
    }
  }
}

// The oracle itself, on a case worked by hand: A against AC, unit scores
// (open + extend = -4), Y = 4. Row 0 keeps (0,1) = -4, exactly on the
// cutoff 0 - 4, and prunes (0,2) = -5. Row 1 keeps (1,0) = -4 on the same
// cutoff, takes the match (1,1) = 1 as the best cell, and keeps (1,2) =
// 1 - 4 = -3: in sequential mode that is exactly the moved cutoff 1 - 4.
TEST(YdropOracle, OracleHandWorkedCase) {
  const Sequence a("a", std::vector<BaseCode>{0});
  const Sequence b("b", std::vector<BaseCode>{0, 1});
  for (const PruneMode prune : {PruneMode::kSequential, PruneMode::kConservative}) {
    const OracleResult r = brute_ydrop(a.codes(), b.codes(), test_params(4), prune);
    EXPECT_EQ(r.best.score, 1);
    EXPECT_EQ(r.best.i, 1u);
    EXPECT_EQ(r.best.j, 1u);
    ASSERT_EQ(r.row_bounds.size(), 2u);
    EXPECT_EQ(r.row_bounds[0].lo, 0u);
    EXPECT_EQ(r.row_bounds[0].hi, 2u);
    EXPECT_EQ(r.row_bounds[1].lo, 0u);
    EXPECT_EQ(r.row_bounds[1].hi, 3u);
  }
}

}  // namespace
}  // namespace fastz
