// Seeded property-based harness for the color-round element schedule
// (mesh/coloring.hpp). Across ~50 randomized meshes (varying box
// dimensions, GLL orders, fluid/solid-style subset splits and slot
// counts, plus small globe shells) it asserts the three schedule
// invariants INDEPENDENTLY of check_element_schedule:
//
//  1. every input element is scheduled exactly once;
//  2. no two concurrently-runnable work units (units of one round) share
//     a GLL point;
//  3. per-point contributions arrive in strictly ascending color order
//     (the bit-identity property).
//
// It then proves the harness has teeth: mutated schedules, mutated batch
// cuts and an injected batch-formation bug (the TEST-ONLY
// unsafe_batch_across_colors option) must be flagged by
// check_element_schedule.
//
// The clustered-LTS section (ISSUE 7) generalizes the same program to
// cluster schedules on refined-region meshes (~4x stable-dt spread, >= 3
// clusters): the three invariants are re-proven per rate bucket, plus
// cluster invariant C — every point collects a contribution from every
// touching element exactly once per cluster round, and any point gathered
// mid-stride is served by the interface interpolation set. Three more
// injection teeth (unsafe_rate_from_own_level, unsafe_merge_slowest_rates,
// unsafe_drop_interp_points) prove the cluster checkers catch mutated
// assignments, cross-cluster merges and skipped interpolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "mesh/cartesian.hpp"
#include "mesh/coloring.hpp"
#include "mesh/rcm.hpp"
#include "model/earth_model.hpp"
#include "sphere/mesher.hpp"

namespace sfg {
namespace {

// ---- independent invariant checks (deliberately NOT reusing
// check_element_schedule, which is itself under test) ----

void expect_scheduled_exactly_once(const HexMesh& mesh,
                                   const std::vector<int>& elements,
                                   const ElementSchedule& s,
                                   const std::string& ctx) {
  std::vector<int> count(static_cast<std::size_t>(mesh.nspec), 0);
  for (int e : s.items) {
    ASSERT_GE(e, 0) << ctx;
    ASSERT_LT(e, mesh.nspec) << ctx;
    ++count[static_cast<std::size_t>(e)];
  }
  std::vector<char> in_input(static_cast<std::size_t>(mesh.nspec), 0);
  for (int e : elements) in_input[static_cast<std::size_t>(e)] = 1;
  for (int e = 0; e < mesh.nspec; ++e) {
    EXPECT_EQ(count[static_cast<std::size_t>(e)],
              in_input[static_cast<std::size_t>(e)] ? 1 : 0)
        << ctx << ": element " << e;
  }
  // Units must also tile the item list: total unit coverage == items.
  EXPECT_EQ(s.work.total_items(), s.items.size()) << ctx;
}

void expect_round_footprints_disjoint(const HexMesh& mesh,
                                      const ElementSchedule& s,
                                      const std::string& ctx) {
  const int n3 = mesh.ngll3();
  const auto ng = static_cast<std::size_t>(mesh.nglob);
  // Stamp (round, unit) per point; a re-visit in the same round from a
  // different unit is a race between concurrently-runnable units.
  std::vector<long> pt_round(ng, -1);
  std::vector<std::size_t> pt_unit(ng, 0);
  for (std::size_t r = 0; r < s.work.rounds.size(); ++r) {
    const auto& units = s.work.rounds[r].units;
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (std::size_t i = units[u].begin; i < units[u].end; ++i) {
        const int e = s.items[i];
        const int* ib = mesh.ibool.data() + mesh.local_offset(e);
        for (int p = 0; p < n3; ++p) {
          const auto g = static_cast<std::size_t>(ib[p]);
          if (pt_round[g] == static_cast<long>(r)) {
            ASSERT_EQ(pt_unit[g], u)
                << ctx << ": round " << r << " units " << pt_unit[g]
                << " and " << u << " share point " << g;
          }
          pt_round[g] = static_cast<long>(r);
          pt_unit[g] = u;
        }
      }
    }
  }
}

void expect_ascending_color_per_point(const HexMesh& mesh,
                                      const std::vector<int>& color_of,
                                      const ElementSchedule& s,
                                      const std::string& ctx) {
  const int n3 = mesh.ngll3();
  std::vector<int> last(static_cast<std::size_t>(mesh.nglob), -1);
  // Rounds in order; within a round the per-point order is well defined
  // because footprints are unit-disjoint (checked separately).
  for (const auto& round : s.work.rounds) {
    for (const auto& unit : round.units) {
      for (std::size_t i = unit.begin; i < unit.end; ++i) {
        const int e = s.items[i];
        const int c = color_of[static_cast<std::size_t>(e)];
        const int* ib = mesh.ibool.data() + mesh.local_offset(e);
        for (int p = 0; p < n3; ++p) {
          const auto g = static_cast<std::size_t>(ib[p]);
          ASSERT_GT(c, last[g])
              << ctx << ": point " << g << " receives color " << c
              << " after color " << last[g];
          last[g] = c;
        }
      }
    }
  }
}

struct RandomCase {
  HexMesh mesh;
  std::vector<int> color_of;
  std::vector<int> subset_a;  ///< "solid"-style subset, shuffled order
  std::vector<int> subset_b;  ///< "fluid"-style complement
  ScheduleOptions opts;
  std::string ctx;
};

// Build one randomized case: a box mesh with random dimensions and GLL
// order, a coloring computed in a shuffled processing order, a random
// two-way subset split (mimicking fluid/solid element lists) and a random
// slot count. The shuffled order also gives arbitrary within-color orders.
RandomCase make_random_case(SplitMix64& rng, int index) {
  RandomCase rc;
  CartesianBoxSpec spec;
  spec.nx = 1 + static_cast<int>(rng.next_below(4));
  spec.ny = 1 + static_cast<int>(rng.next_below(4));
  spec.nz = 1 + static_cast<int>(rng.next_below(5));
  spec.lx = spec.ly = spec.lz = 1000.0;
  const int ngll = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  GllBasis basis(ngll);
  rc.mesh = build_cartesian_box(spec, basis);

  // Shuffled processing order (Fisher-Yates on SplitMix64).
  std::vector<int> order(static_cast<std::size_t>(rc.mesh.nspec));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  rc.color_of = greedy_element_coloring(element_adjacency(rc.mesh), order);

  // Random subset split: roughly `frac` of elements to subset A, in the
  // shuffled order (subsets of the solver are ordered lists, not sorted).
  const double frac = rng.uniform(0.2, 1.0);
  for (int e : order)
    (rng.next_double() < frac ? rc.subset_a : rc.subset_b).push_back(e);

  rc.opts.num_slots = 1 + static_cast<int>(rng.next_below(8));
  // Unused draw, kept so the seeded corpus stays the one the sweep-count
  // assertions below were sized on.
  rng.next_double();

  rc.ctx = "case " + std::to_string(index) + " (" +
           std::to_string(spec.nx) + "x" + std::to_string(spec.ny) + "x" +
           std::to_string(spec.nz) + " ngll " + std::to_string(ngll) +
           " slots " + std::to_string(rc.opts.num_slots) + ")";
  return rc;
}

void check_all_invariants(const HexMesh& mesh,
                          const std::vector<int>& color_of,
                          const std::vector<int>& elements,
                          const ElementSchedule& s, const std::string& ctx) {
  expect_scheduled_exactly_once(mesh, elements, s, ctx);
  expect_round_footprints_disjoint(mesh, s, ctx);
  expect_ascending_color_per_point(mesh, color_of, s, ctx);
  // The production validator must agree with the independent checks.
  EXPECT_EQ(check_element_schedule(mesh, elements, color_of, s),
            std::string())
      << ctx;
}

TEST(ScheduleProperty, RandomizedMeshesSatisfyAllInvariants) {
  SplitMix64 rng(0x5eed5eedULL);
  int concurrent_rounds_seen = 0;
  for (int i = 0; i < 48; ++i) {
    RandomCase rc = make_random_case(rng, i);
    for (const std::vector<int>* subset : {&rc.subset_a, &rc.subset_b}) {
      const ElementSchedule s =
          build_element_schedule(rc.mesh, *subset, rc.color_of, rc.opts);
      check_all_invariants(rc.mesh, rc.color_of, *subset, s, rc.ctx);
      for (const auto& round : s.work.rounds) {
        int busy = 0;
        for (const auto& u : round.units) busy += u.size() > 0 ? 1 : 0;
        if (busy > 1) ++concurrent_rounds_seen;
      }
    }
  }
  // The sweep must exercise rounds whose units really run concurrently,
  // so invariant 2 has something to check.
  EXPECT_GT(concurrent_rounds_seen, 100);
}

TEST(ScheduleProperty, OneSlotScheduleIsOneUnitInColorOrder) {
  // A single consumer needs no barrier: every color lands in one unit of
  // one round, still ascending in color (invariant 3 inside the unit).
  SplitMix64 rng(0xb10cULL);
  for (int i = 0; i < 8; ++i) {
    RandomCase rc = make_random_case(rng, i);
    if (rc.subset_a.empty()) continue;
    rc.opts.num_slots = 1;
    const ElementSchedule s = build_element_schedule(
        rc.mesh, rc.subset_a, rc.color_of, rc.opts);
    check_all_invariants(rc.mesh, rc.color_of, rc.subset_a, s,
                         rc.ctx + " [one slot]");
    ASSERT_EQ(s.work.rounds.size(), 1u) << rc.ctx;
    ASSERT_EQ(s.work.rounds[0].units.size(), 1u) << rc.ctx;
    for (std::size_t j = 1; j < s.items.size(); ++j)
      EXPECT_LE(rc.color_of[static_cast<std::size_t>(s.items[j - 1])],
                rc.color_of[static_cast<std::size_t>(s.items[j])])
          << rc.ctx << ": item " << j;
  }
}

TEST(ScheduleProperty, GlobeShellSlicesSatisfyAllInvariants) {
  MaterialSample s;
  s.rho = 3000.0;
  s.vp = 8000.0;
  s.vs = 4500.0;
  s.q_mu = 300.0;
  HomogeneousModel model(s, kEarthRadiusM);
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.r_min = 0.8 * kEarthRadiusM;
  spec.model = &model;
  GllBasis basis(4);
  for (int nchunks : {1, 6}) {
    spec.nchunks = nchunks;
    GlobeSlice globe = build_globe_serial(spec, basis);
    std::vector<int> all(static_cast<std::size_t>(globe.mesh.nspec));
    std::iota(all.begin(), all.end(), 0);
    const auto color_of =
        greedy_element_coloring(element_adjacency(globe.mesh), all);
    ScheduleOptions opts;
    opts.num_slots = 4;
    const ElementSchedule sched =
        build_element_schedule(globe.mesh, all, color_of, opts);
    check_all_invariants(globe.mesh, color_of, all, sched,
                         "globe nchunks=" + std::to_string(nchunks));
  }
}

// ---- the harness must FAIL on injected schedule bugs ----

TEST(ScheduleProperty, CheckerFlagsMutatedSchedules) {
  SplitMix64 rng(0xfaceULL);
  RandomCase rc = make_random_case(rng, 0);
  // Make sure the case is non-trivial.
  while (rc.subset_a.size() < 8) rc = make_random_case(rng, 1);
  const ElementSchedule good = build_element_schedule(
      rc.mesh, rc.subset_a, rc.color_of, rc.opts);
  ASSERT_EQ(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, good),
            std::string());

  // Duplicate an element (drops another): invariant 1.
  {
    ElementSchedule bad = good;
    bad.items[0] = bad.items[1];
    EXPECT_NE(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad),
              std::string());
  }
  // Truncate the last unit: an item is no longer covered by any unit.
  {
    ElementSchedule bad = good;
    for (auto rit = bad.work.rounds.rbegin(); rit != bad.work.rounds.rend();
         ++rit) {
      for (auto uit = rit->units.rbegin(); uit != rit->units.rend(); ++uit) {
        if (uit->size() > 0) {
          --uit->end;
          goto truncated;
        }
      }
    }
  truncated:
    EXPECT_NE(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad),
              std::string());
  }
  // Swap a later-color element before an earlier-color neighbour sharing a
  // point: invariant 3. Find two adjacent-in-items elements of different
  // colors that share a point and swap them.
  {
    ElementSchedule bad = good;
    const int n3 = rc.mesh.ngll3();
    bool swapped = false;
    for (std::size_t i = 0; i + 1 < bad.items.size() && !swapped; ++i) {
      const int a = bad.items[i], b = bad.items[i + 1];
      if (rc.color_of[static_cast<std::size_t>(a)] >=
          rc.color_of[static_cast<std::size_t>(b)])
        continue;
      const int* ia = rc.mesh.ibool.data() + rc.mesh.local_offset(a);
      const int* ib = rc.mesh.ibool.data() + rc.mesh.local_offset(b);
      for (int p = 0; p < n3 && !swapped; ++p)
        for (int q = 0; q < n3; ++q)
          if (ia[p] == ib[q]) {
            std::swap(bad.items[i], bad.items[i + 1]);
            swapped = true;
            break;
          }
    }
    if (swapped) {
      EXPECT_NE(
          check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad),
          std::string());
    }
  }
}

// Bit-identity witness at the schedule level: two different slot counts
// visit every global point in the same ascending color order, so the
// per-point float summation is literally the same sequence. Verified by
// comparing the per-point color sequences.
TEST(ScheduleProperty, PerPointColorSequenceIndependentOfSlots) {
  SplitMix64 rng(0x0b15ULL);
  RandomCase rc = make_random_case(rng, 0);
  auto point_sequence = [&](const ElementSchedule& s) {
    std::vector<std::vector<int>> seq(
        static_cast<std::size_t>(rc.mesh.nglob));
    const int n3 = rc.mesh.ngll3();
    for (const auto& round : s.work.rounds)
      for (const auto& unit : round.units)
        for (std::size_t i = unit.begin; i < unit.end; ++i) {
          const int e = s.items[i];
          const int* ib =
              rc.mesh.ibool.data() + rc.mesh.local_offset(e);
          for (int p = 0; p < n3; ++p)
            seq[static_cast<std::size_t>(ib[p])].push_back(
                rc.color_of[static_cast<std::size_t>(e)]);
        }
    return seq;
  };
  ScheduleOptions o1 = rc.opts, o4 = rc.opts;
  o1.num_slots = 1;
  o4.num_slots = 4;
  const auto s1 = point_sequence(
      build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, o1));
  const auto s4 = point_sequence(
      build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, o4));
  EXPECT_EQ(s1, s4);
}

// ---- batched schedules (ISSUE 6) ----

// Independent batch-invariant checks (again deliberately NOT reusing
// check_element_schedule): cuts tile the item list without crossing unit
// boundaries; every batch holds at most batch_lanes same-color elements
// with pairwise-disjoint GLL footprints (invariant B).
void expect_batches_sound(const HexMesh& mesh,
                          const std::vector<int>& color_of,
                          const ElementSchedule& s, const std::string& ctx) {
  ASSERT_GT(s.batch_lanes, 1) << ctx;
  const auto& cut = s.batch_cut;
  ASSERT_FALSE(cut.empty()) << ctx;
  EXPECT_EQ(cut.front(), 0u) << ctx;
  EXPECT_EQ(cut.back(), s.items.size()) << ctx;

  std::vector<std::pair<std::size_t, std::size_t>> units;
  for (const auto& round : s.work.rounds)
    for (const auto& u : round.units)
      if (u.begin < u.end) units.emplace_back(u.begin, u.end);
  std::sort(units.begin(), units.end());

  const int n3 = mesh.ngll3();
  std::vector<long> stamp(static_cast<std::size_t>(mesh.nglob), -1);
  std::vector<int> stamp_elem(static_cast<std::size_t>(mesh.nglob), -1);
  for (std::size_t b = 0; b + 1 < cut.size(); ++b) {
    const std::size_t b0 = cut[b], b1 = cut[b + 1];
    ASSERT_LT(b0, b1) << ctx << ": batch " << b;
    EXPECT_LE(b1 - b0, static_cast<std::size_t>(s.batch_lanes))
        << ctx << ": batch " << b;
    bool inside = false;
    for (const auto& u : units)
      if (b0 >= u.first && b1 <= u.second) {
        inside = true;
        break;
      }
    EXPECT_TRUE(inside)
        << ctx << ": batch " << b << " straddles a unit boundary";
    for (std::size_t i = b0; i < b1; ++i) {
      const int e = s.items[i];
      EXPECT_EQ(color_of[static_cast<std::size_t>(e)],
                color_of[static_cast<std::size_t>(s.items[b0])])
          << ctx << ": batch " << b << " mixes colors";
      const int* ib = mesh.ibool.data() + mesh.local_offset(e);
      for (int p = 0; p < n3; ++p) {
        const auto g = static_cast<std::size_t>(ib[p]);
        ASSERT_TRUE(stamp[g] != static_cast<long>(b) || stamp_elem[g] == e)
            << ctx << ": batch " << b << " lanes share point " << g;
        stamp[g] = static_cast<long>(b);
        stamp_elem[g] = e;
      }
    }
  }
}

TEST(ScheduleProperty, BatchedSchedulesSatisfyAllInvariantsPlusB) {
  // Same corpus seed as the main sweep; every lane width the batched
  // kernel dispatches (scalar/SSE/NEON = 4, AVX2 = 8, AVX-512 = 16).
  SplitMix64 rng(0x5eed5eedULL);
  int multi_lane_batches = 0;
  for (int i = 0; i < 24; ++i) {
    RandomCase rc = make_random_case(rng, i);
    for (int lanes : {4, 8, 16}) {
      ScheduleOptions opts = rc.opts;
      opts.batch_lanes = lanes;
      for (const std::vector<int>* subset : {&rc.subset_a, &rc.subset_b}) {
        const ElementSchedule s =
            build_element_schedule(rc.mesh, *subset, rc.color_of, opts);
        const std::string ctx =
            rc.ctx + " [lanes " + std::to_string(lanes) + "]";
        check_all_invariants(rc.mesh, rc.color_of, *subset, s, ctx);
        expect_batches_sound(rc.mesh, rc.color_of, s, ctx);
        for (std::size_t b = 0; b + 1 < s.batch_cut.size(); ++b)
          if (s.batch_cut[b + 1] - s.batch_cut[b] > 1) ++multi_lane_batches;
      }
    }
  }
  // The sweep must produce real multi-element batches, not just width-1
  // degenerate cuts.
  EXPECT_GT(multi_lane_batches, 100);
}

TEST(ScheduleProperty, CheckerFlagsBatchAcrossColors) {
  // unsafe_batch_across_colors lets a batch run over a color boundary
  // inside a unit — violating invariant B. Every build where that injected
  // bug actually bites must be rejected by check_element_schedule.
  SplitMix64 rng(0xbadc0de5ULL);
  int injected = 0, flagged = 0, footprint_msgs = 0;
  for (int i = 0; i < 24; ++i) {
    RandomCase rc = make_random_case(rng, i);
    ScheduleOptions bad = rc.opts;
    bad.batch_lanes = 4;
    bad.unsafe_batch_across_colors = true;
    const ElementSchedule s =
        build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad);
    bool crossed = false;
    for (std::size_t b = 0; b + 1 < s.batch_cut.size() && !crossed; ++b)
      for (std::size_t j = s.batch_cut[b] + 1; j < s.batch_cut[b + 1]; ++j)
        if (rc.color_of[static_cast<std::size_t>(s.items[j])] !=
            rc.color_of[static_cast<std::size_t>(
                s.items[s.batch_cut[b]])]) {
          crossed = true;
          break;
        }
    if (!crossed) continue;
    ++injected;
    const std::string err =
        check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, s);
    if (!err.empty()) ++flagged;
    if (err.find("share global point") != std::string::npos)
      ++footprint_msgs;
  }
  ASSERT_GT(injected, 0) << "sweep never produced a cross-color batch";
  EXPECT_EQ(flagged, injected)
      << "checker missed an injected invariant-B violation";
  // At least some rejections must be for intersecting lane footprints
  // (the checker tests footprints before color uniformity).
  EXPECT_GT(footprint_msgs, 0);
}

TEST(ScheduleProperty, CheckerRejectsStraddlingFootprintBatch) {
  // Hand-inject the precise failure the SoA scatter cares about: merge two
  // adjacent batches whose boundary elements share a GLL point into one
  // batch. The checker must reject it with the footprint message (it
  // checks footprints FIRST).
  SplitMix64 rng(0x0ddba11ULL);
  const auto npos = std::string::npos;
  bool exercised = false;
  for (int i = 0; i < 24 && !exercised; ++i) {
    RandomCase rc = make_random_case(rng, i);
    rc.opts.batch_lanes = 4;
    const ElementSchedule s =
        build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, rc.opts);
    ASSERT_EQ(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, s),
              std::string())
        << rc.ctx;
    const int n3 = rc.mesh.ngll3();
    auto share_point = [&](int a, int b) {
      const int* ia = rc.mesh.ibool.data() + rc.mesh.local_offset(a);
      const int* ib = rc.mesh.ibool.data() + rc.mesh.local_offset(b);
      for (int p = 0; p < n3; ++p)
        for (int q = 0; q < n3; ++q)
          if (ia[p] == ib[q]) return true;
      return false;
    };
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (const auto& round : s.work.rounds)
      for (const auto& u : round.units)
        if (u.begin < u.end) units.emplace_back(u.begin, u.end);
    auto one_unit = [&](std::size_t lo, std::size_t hi) {
      for (const auto& u : units)
        if (lo >= u.first && hi <= u.second) return true;
      return false;
    };
    for (std::size_t c = 1; c + 1 < s.batch_cut.size() && !exercised; ++c) {
      const std::size_t lo = s.batch_cut[c - 1];
      const std::size_t mid = s.batch_cut[c];
      const std::size_t hi = s.batch_cut[c + 1];
      if (hi - lo > static_cast<std::size_t>(s.batch_lanes)) continue;
      if (!one_unit(lo, hi)) continue;
      if (!share_point(s.items[mid - 1], s.items[mid])) continue;
      ElementSchedule bad = s;
      bad.batch_cut.erase(bad.batch_cut.begin() +
                          static_cast<std::ptrdiff_t>(c));
      const std::string err =
          check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad);
      ASSERT_FALSE(err.empty()) << rc.ctx;
      EXPECT_NE(err.find("share global point"), npos)
          << rc.ctx << ": unexpected violation kind: " << err;
      exercised = true;
    }
  }
  ASSERT_TRUE(exercised)
      << "sweep never found two point-sharing adjacent batches to merge";
}

TEST(ScheduleProperty, CheckerFlagsMutatedBatchCuts) {
  SplitMix64 rng(0xca7ULL);
  RandomCase rc = make_random_case(rng, 0);
  while (rc.subset_a.size() < 8) rc = make_random_case(rng, 1);
  rc.opts.batch_lanes = 4;
  const ElementSchedule good =
      build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, rc.opts);
  ASSERT_EQ(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, good),
            std::string());
  ASSERT_GE(good.batch_cut.size(), 3u);
  // Cuts that stop short of the item list do not tile it.
  {
    ElementSchedule bad = good;
    bad.batch_cut.pop_back();
    EXPECT_NE(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad)
                  .find("tile"),
              std::string::npos);
  }
  // A batch wider than batch_lanes.
  {
    ElementSchedule bad = good;
    bad.batch_lanes = 2;  // cuts built for 4 lanes now overflow
    bool has_wide = false;
    for (std::size_t b = 0; b + 1 < bad.batch_cut.size(); ++b)
      if (bad.batch_cut[b + 1] - bad.batch_cut[b] > 2) has_wide = true;
    if (has_wide) {
      EXPECT_NE(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad)
                    .find("more than batch_lanes"),
                std::string::npos);
    }
  }
  // Non-ascending cuts.
  {
    ElementSchedule bad = good;
    bad.batch_cut[1] = bad.batch_cut[2];
    EXPECT_NE(check_element_schedule(rc.mesh, rc.subset_a, rc.color_of, bad),
              std::string());
  }
}

// ---- clustered local time stepping (ISSUE 7) ----

// Everything the cluster invariants are phrased in, recomputed straight
// from the mesh and the element levels — deliberately NOT reusing the
// production helpers (cluster_point_levels etc.), which are themselves
// under test.
struct IndependentClusterView {
  std::vector<std::vector<int>> touching;  ///< per point, unique elements
  std::vector<int> point_level;            ///< min toucher level
  std::vector<int> rate_of;                ///< min point level over points
  std::vector<int> point_min_rate;         ///< min toucher rate
};

IndependentClusterView recompute_cluster_view(
    const HexMesh& mesh, const std::vector<int>& level_of) {
  IndependentClusterView v;
  const auto ng = static_cast<std::size_t>(mesh.nglob);
  const int n3 = mesh.ngll3();
  v.touching.resize(ng);
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    for (int p = 0; p < n3; ++p) {
      auto& lst = v.touching[static_cast<std::size_t>(ib[p])];
      if (lst.empty() || lst.back() != e) lst.push_back(e);
    }
  }
  v.point_level.assign(ng, 0);
  for (std::size_t g = 0; g < ng; ++g) {
    int lv = std::numeric_limits<int>::max();
    for (int e : v.touching[g])
      lv = std::min(lv, level_of[static_cast<std::size_t>(e)]);
    v.point_level[g] = v.touching[g].empty() ? 0 : lv;
  }
  v.rate_of.assign(static_cast<std::size_t>(mesh.nspec), 0);
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    int r = std::numeric_limits<int>::max();
    for (int p = 0; p < n3; ++p)
      r = std::min(r, v.point_level[static_cast<std::size_t>(ib[p])]);
    v.rate_of[static_cast<std::size_t>(e)] = r;
  }
  v.point_min_rate.assign(ng, std::numeric_limits<int>::max());
  for (std::size_t g = 0; g < ng; ++g)
    for (int e : v.touching[g])
      v.point_min_rate[g] = std::min(
          v.point_min_rate[g], v.rate_of[static_cast<std::size_t>(e)]);
  return v;
}

/// Rate-2 smoothing (cluster invariant C-C): no element's level exceeds
/// any of its points' levels by more than one.
void expect_cluster_levels_smoothed(const HexMesh& mesh,
                                    const std::vector<int>& level_of,
                                    const IndependentClusterView& v,
                                    const std::string& ctx) {
  const int n3 = mesh.ngll3();
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    for (int p = 0; p < n3; ++p)
      ASSERT_LE(level_of[static_cast<std::size_t>(e)],
                v.point_level[static_cast<std::size_t>(ib[p])] + 1)
          << ctx << ": element " << e << " point " << ib[p];
  }
}

/// Cluster invariant C-A, independently: buckets tile the input exactly
/// once and each bucket holds only elements of its own marching rate.
void expect_cluster_buckets_sound(const HexMesh& mesh,
                                  const std::vector<int>& elements,
                                  const IndependentClusterView& v,
                                  const ClusterSchedule& cs,
                                  const std::string& ctx) {
  ASSERT_EQ(cs.rate_elements.size(), cs.rates.size()) << ctx;
  ASSERT_EQ(cs.rate_sched.size(), cs.rates.size()) << ctx;
  std::vector<int> count(static_cast<std::size_t>(mesh.nspec), 0);
  for (std::size_t i = 0; i < cs.rates.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(cs.rates[i - 1], cs.rates[i]) << ctx;
    }
    for (int e : cs.rate_elements[i]) {
      ASSERT_GE(e, 0) << ctx;
      ASSERT_LT(e, mesh.nspec) << ctx;
      ++count[static_cast<std::size_t>(e)];
      EXPECT_EQ(v.rate_of[static_cast<std::size_t>(e)], cs.rates[i])
          << ctx << ": element " << e << " in the wrong rate bucket";
    }
  }
  std::vector<char> in_input(static_cast<std::size_t>(mesh.nspec), 0);
  for (int e : elements) in_input[static_cast<std::size_t>(e)] = 1;
  for (int e = 0; e < mesh.nspec; ++e)
    EXPECT_EQ(count[static_cast<std::size_t>(e)],
              in_input[static_cast<std::size_t>(e)] ? 1 : 0)
        << ctx << ": element " << e;
}

/// The interpolation set must be exactly the formula set: points of level
/// L > 0 with some toucher marching at a rate below L.
void expect_interp_set_exact(const HexMesh& mesh,
                             const IndependentClusterView& v,
                             const InterfaceSet& iset,
                             const std::string& ctx) {
  std::vector<int> exp_points, exp_levels;
  for (int g = 0; g < mesh.nglob; ++g) {
    const auto gs = static_cast<std::size_t>(g);
    if (v.point_level[gs] > 0 && v.point_min_rate[gs] < v.point_level[gs]) {
      exp_points.push_back(g);
      exp_levels.push_back(v.point_level[gs]);
    }
  }
  EXPECT_EQ(iset.points, exp_points) << ctx;
  EXPECT_EQ(iset.level, exp_levels) << ctx;
}

/// Cluster invariant C (C-D), independently: simulate one full fast round
/// of 2^(num_levels-1) substeps. At every substep where a point is due,
/// it must collect exactly one contribution from EVERY touching element of
/// `elements` (the solver discards junk at not-due points each substep, so
/// the count is per-substep); and any contribution landing at a substep
/// where the point is not due is a mid-stride gather that must be covered
/// by the interpolation set.
void expect_exactly_once_per_cluster_round(const HexMesh& mesh,
                                           const std::vector<int>& elements,
                                           const IndependentClusterView& v,
                                           int num_levels,
                                           const InterfaceSet& iset,
                                           const std::string& ctx) {
  const auto ng = static_cast<std::size_t>(mesh.nglob);
  const int n3 = mesh.ngll3();
  std::vector<char> interp(ng, 0);
  for (int g : iset.points) interp[static_cast<std::size_t>(g)] = 1;

  std::vector<std::vector<int>> expected(ng);
  for (int e : elements) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    for (int p = 0; p < n3; ++p)
      expected[static_cast<std::size_t>(ib[p])].push_back(e);
  }
  for (auto& lst : expected) std::sort(lst.begin(), lst.end());

  const int stride = 1 << (num_levels - 1);
  std::vector<std::vector<int>> got(ng);
  for (int n = 0; n < stride; ++n) {
    for (auto& lst : got) lst.clear();
    for (int e : elements) {
      if (((n + 1) % (1 << v.rate_of[static_cast<std::size_t>(e)])) != 0)
        continue;
      const int* ib = mesh.ibool.data() + mesh.local_offset(e);
      for (int p = 0; p < n3; ++p) {
        const auto g = static_cast<std::size_t>(ib[p]);
        if (((n + 1) % (1 << v.point_level[g])) != 0) {
          EXPECT_TRUE(interp[g])
              << ctx << ": point " << ib[p] << " gathered mid-stride at "
              << "substep " << n << " without interpolation";
        }
        got[g].push_back(e);
      }
    }
    for (std::size_t g = 0; g < ng; ++g) {
      if (expected[g].empty()) continue;
      if (((n + 1) % (1 << v.point_level[g])) != 0) continue;
      std::sort(got[g].begin(), got[g].end());
      ASSERT_EQ(got[g], expected[g])
          << ctx << ": point " << g << " due at substep " << n
          << " did not collect exactly one contribution per toucher";
    }
  }
}

struct RefinedCase {
  RandomCase rc;
  std::vector<double> element_dt;
  ClusterPartition part;
  int max_levels = 0;
};

// Refined-region generator: a box with a fast (finely-resolved-style)
// band at the bottom — per-element stable dt doubles with each z quarter
// for a ~4-8x total spread plus jitter, the profile where LTS actually
// produces >= 3 occupied clusters (satellite task 1).
RefinedCase make_refined_case(SplitMix64& rng, int index) {
  RefinedCase cc;
  CartesianBoxSpec spec;
  spec.nx = 2 + static_cast<int>(rng.next_below(3));
  spec.ny = 2 + static_cast<int>(rng.next_below(3));
  spec.nz = 4 + static_cast<int>(rng.next_below(3));
  spec.lx = spec.ly = 1000.0;
  spec.lz = 2000.0;
  const int ngll = 2 + static_cast<int>(rng.next_below(3));  // 2..4
  GllBasis basis(ngll);
  cc.rc.mesh = build_cartesian_box(spec, basis);
  HexMesh& mesh = cc.rc.mesh;

  std::vector<int> order(static_cast<std::size_t>(mesh.nspec));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  cc.rc.color_of = greedy_element_coloring(element_adjacency(mesh), order);

  const double frac = rng.uniform(0.3, 1.0);
  for (int e : order)
    (rng.next_double() < frac ? cc.rc.subset_a : cc.rc.subset_b).push_back(e);

  cc.rc.opts.num_slots = 1 + static_cast<int>(rng.next_below(4));

  const double dt0 = 1.0e-3;
  cc.element_dt.resize(static_cast<std::size_t>(mesh.nspec));
  const int n3 = mesh.ngll3();
  for (int e = 0; e < mesh.nspec; ++e) {
    const std::size_t off = mesh.local_offset(e);
    double zc = 0.0;
    for (int p = 0; p < n3; ++p)
      zc += mesh.zstore[off + static_cast<std::size_t>(p)];
    zc /= n3;
    const int band =
        std::clamp(static_cast<int>(zc / spec.lz * 4.0), 0, 3);
    cc.element_dt[static_cast<std::size_t>(e)] =
        dt0 * static_cast<double>(1 << band) * rng.uniform(1.0, 1.4);
  }
  cc.max_levels = 3 + static_cast<int>(rng.next_below(2));  // 3..4
  cc.part = build_cluster_partition(
      mesh, cluster_levels_from_dt(cc.element_dt, dt0, cc.max_levels));

  cc.rc.ctx = "refined case " + std::to_string(index) + " (" +
              std::to_string(spec.nx) + "x" + std::to_string(spec.ny) +
              "x" + std::to_string(spec.nz) + " ngll " +
              std::to_string(ngll) + " slots " +
              std::to_string(cc.rc.opts.num_slots) + " max_levels " +
              std::to_string(cc.max_levels) + ")";
  return cc;
}

TEST(ClusterScheduleProperty, RefinedCasesSatisfyAllClusterInvariants) {
  SplitMix64 rng(0xc1a57e85ULL);
  int three_plus_clusters = 0;
  std::size_t interface_points_seen = 0;
  for (int i = 0; i < 24; ++i) {
    RefinedCase cc = make_refined_case(rng, i);
    const HexMesh& mesh = cc.rc.mesh;
    const IndependentClusterView v =
        recompute_cluster_view(mesh, cc.part.level_of);

    // Partition soundness, independently recomputed.
    expect_cluster_levels_smoothed(mesh, cc.part.level_of, v, cc.rc.ctx);
    EXPECT_EQ(cc.part.point_level, v.point_level) << cc.rc.ctx;
    EXPECT_EQ(cc.part.rate_of, v.rate_of) << cc.rc.ctx;

    const InterfaceSet iset = cluster_interface_points(
        mesh, cc.part.point_level,
        cluster_point_min_rate(mesh, cc.part.rate_of));
    expect_interp_set_exact(mesh, v, iset, cc.rc.ctx);
    interface_points_seen += iset.points.size();

    int rates_full = 0;
    for (const std::vector<int>* subset :
         {&cc.rc.subset_a, &cc.rc.subset_b}) {
      const ClusterSchedule cs = build_cluster_schedule(
          mesh, *subset, cc.rc.color_of, cc.part, cc.rc.opts);
      expect_cluster_buckets_sound(mesh, *subset, v, cs, cc.rc.ctx);
      // Invariants 1-3 re-proven on every rate bucket: a cluster round is
      // just another schedule level.
      for (std::size_t r = 0; r < cs.rates.size(); ++r)
        check_all_invariants(
            mesh, cc.rc.color_of, cs.rate_elements[r], cs.rate_sched[r],
            cc.rc.ctx + " [rate " + std::to_string(cs.rates[r]) + "]");
      EXPECT_EQ(check_cluster_schedule(mesh, *subset, cc.rc.color_of,
                                       cc.part, cs),
                std::string())
          << cc.rc.ctx;
      // Cluster invariant C, dynamically: exactly once per cluster round,
      // mid-stride gathers covered by interpolation.
      expect_exactly_once_per_cluster_round(mesh, *subset, v,
                                            cc.part.num_levels, iset,
                                            cc.rc.ctx);
      EXPECT_EQ(check_cluster_interfaces(mesh, *subset, cc.part, iset),
                std::string())
          << cc.rc.ctx;
      if (subset == &cc.rc.subset_a)
        rates_full = static_cast<int>(cs.rates.size());
    }
    if (rates_full >= 3) ++three_plus_clusters;
  }
  // The refined generator must really exercise multi-cluster machinery:
  // most draws produce >= 3 occupied clusters and a real interface set.
  EXPECT_GT(three_plus_clusters, 12);
  EXPECT_GT(interface_points_seen, 200u);
}

TEST(ClusterScheduleProperty, BatchedClusterSchedulesSatisfyInvariantB) {
  SplitMix64 rng(0xc1a5b47cULL);
  int batched_buckets = 0;
  for (int i = 0; i < 8; ++i) {
    RefinedCase cc = make_refined_case(rng, i);
    ScheduleOptions opts = cc.rc.opts;
    opts.batch_lanes = 8;
    const ClusterSchedule cs = build_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, opts);
    for (std::size_t r = 0; r < cs.rates.size(); ++r) {
      const std::string ctx =
          cc.rc.ctx + " [batched rate " + std::to_string(cs.rates[r]) + "]";
      check_all_invariants(cc.rc.mesh, cc.rc.color_of, cs.rate_elements[r],
                           cs.rate_sched[r], ctx);
      if (cs.rate_elements[r].empty()) continue;
      expect_batches_sound(cc.rc.mesh, cc.rc.color_of, cs.rate_sched[r],
                           ctx);
      ++batched_buckets;
    }
    EXPECT_EQ(check_cluster_schedule(cc.rc.mesh, cc.rc.subset_a,
                                     cc.rc.color_of, cc.part, cs),
              std::string())
        << cc.rc.ctx;
  }
  EXPECT_GT(batched_buckets, 10);
}

TEST(ClusterScheduleProperty, SingleClusterDegeneratesToElementSchedule) {
  SplitMix64 rng(0x0115c1a5ULL);
  RandomCase rc = make_random_case(rng, 0);
  while (rc.subset_a.size() < 8) rc = make_random_case(rng, 1);
  const ClusterPartition part = build_cluster_partition(
      rc.mesh, std::vector<int>(static_cast<std::size_t>(rc.mesh.nspec), 0));
  EXPECT_EQ(part.num_levels, 1);
  const InterfaceSet iset = cluster_interface_points(
      rc.mesh, part.point_level,
      cluster_point_min_rate(rc.mesh, part.rate_of));
  EXPECT_TRUE(iset.points.empty());

  const ClusterSchedule cs = build_cluster_schedule(
      rc.mesh, rc.subset_a, rc.color_of, part, rc.opts);
  ASSERT_EQ(cs.rates, std::vector<int>{0});
  const ElementSchedule ref =
      build_element_schedule(rc.mesh, rc.subset_a, rc.color_of, rc.opts);
  EXPECT_EQ(cs.rate_sched[0].items, ref.items);
  EXPECT_EQ(check_cluster_schedule(rc.mesh, rc.subset_a, rc.color_of, part,
                                   cs),
            std::string());
  EXPECT_EQ(check_cluster_interfaces(rc.mesh, rc.subset_a, part, iset),
            std::string());
}

// ---- the cluster harness must FAIL on the three injected bug classes ----

TEST(ClusterScheduleProperty, CheckerFlagsMutatedClusterAssignments) {
  // unsafe_rate_from_own_level buckets an element by its raw level even
  // when a faster neighbouring point demotes its marching rate: the
  // element misses due substeps of its fastest point. Every build where
  // the injection changes an assignment must be flagged.
  SplitMix64 rng(0x7ee7a1ULL);
  int injected = 0, flagged = 0;
  for (int i = 0; i < 16; ++i) {
    RefinedCase cc = make_refined_case(rng, i);
    bool bites = false;
    for (int e : cc.rc.subset_a)
      if (cc.part.level_of[static_cast<std::size_t>(e)] !=
          cc.part.rate_of[static_cast<std::size_t>(e)])
        bites = true;
    if (!bites) continue;
    ++injected;
    ClusterOptions bad;
    bad.unsafe_rate_from_own_level = true;
    const ClusterSchedule cs = build_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cc.rc.opts,
        bad);
    const std::string err = check_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cs);
    if (!err.empty()) {
      ++flagged;
      EXPECT_NE(err.find("mutated assignment"), std::string::npos)
          << cc.rc.ctx << ": unexpected violation kind: " << err;
    }
  }
  ASSERT_GT(injected, 0) << "sweep never demoted an element's rate";
  EXPECT_EQ(flagged, injected)
      << "checker missed an injected mutated cluster assignment";
}

TEST(ClusterScheduleProperty, CheckerFlagsCrossClusterMerge) {
  // unsafe_merge_slowest_rates splices the slowest bucket into the next
  // one, marching both at the faster rate — a cross-cluster footprint
  // merge. Every multi-rate build must be flagged.
  SplitMix64 rng(0x3e43eULL);
  int injected = 0, flagged = 0;
  for (int i = 0; i < 16; ++i) {
    RefinedCase cc = make_refined_case(rng, i);
    const ClusterSchedule good = build_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cc.rc.opts);
    if (good.rates.size() < 2) continue;
    ++injected;
    ClusterOptions bad;
    bad.unsafe_merge_slowest_rates = true;
    const ClusterSchedule cs = build_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cc.rc.opts,
        bad);
    EXPECT_EQ(cs.rates.size(), good.rates.size() - 1) << cc.rc.ctx;
    const std::string err = check_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cs);
    if (!err.empty()) {
      ++flagged;
      EXPECT_NE(err.find("cross-cluster merge"), std::string::npos)
          << cc.rc.ctx << ": unexpected violation kind: " << err;
    }
  }
  ASSERT_GT(injected, 0) << "sweep never produced two occupied clusters";
  EXPECT_EQ(flagged, injected)
      << "checker missed an injected cross-cluster merge";
}

TEST(ClusterScheduleProperty, CheckerFlagsSkippedInterfaceInterpolation) {
  // unsafe_drop_interp_points empties the interpolation set: mid-stride
  // gathers would read stale displacement. Every build with a non-empty
  // safe interpolation set must be flagged by check_cluster_interfaces.
  SplitMix64 rng(0xd401b7e4ULL);
  int injected = 0, flagged = 0;
  for (int i = 0; i < 16; ++i) {
    RefinedCase cc = make_refined_case(rng, i);
    const std::vector<int> min_rate =
        cluster_point_min_rate(cc.rc.mesh, cc.part.rate_of);
    const InterfaceSet good = cluster_interface_points(
        cc.rc.mesh, cc.part.point_level, min_rate);
    if (good.points.empty()) continue;
    ++injected;
    ClusterOptions bad;
    bad.unsafe_drop_interp_points = true;
    const InterfaceSet dropped = cluster_interface_points(
        cc.rc.mesh, cc.part.point_level, min_rate, bad);
    ASSERT_TRUE(dropped.points.empty()) << cc.rc.ctx;
    std::vector<int> all(static_cast<std::size_t>(cc.rc.mesh.nspec));
    std::iota(all.begin(), all.end(), 0);
    const std::string err =
        check_cluster_interfaces(cc.rc.mesh, all, cc.part, dropped);
    if (!err.empty()) {
      ++flagged;
      EXPECT_NE(err.find("skipped interface interpolation"),
                std::string::npos)
          << cc.rc.ctx << ": unexpected violation kind: " << err;
    }
  }
  ASSERT_GT(injected, 0) << "sweep never produced interface points";
  EXPECT_EQ(flagged, injected)
      << "checker missed a skipped interface interpolation";
}

TEST(ClusterScheduleProperty, CheckerFlagsMutatedClusterStructures) {
  SplitMix64 rng(0xfa57c1a5ULL);
  RefinedCase cc = make_refined_case(rng, 0);
  while (cc.rc.subset_a.size() < 8 ||
         build_cluster_schedule(cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of,
                                cc.part, cc.rc.opts)
                 .rates.size() < 2)
    cc = make_refined_case(rng, 1);
  const ClusterSchedule good = build_cluster_schedule(
      cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, cc.rc.opts);
  ASSERT_EQ(check_cluster_schedule(cc.rc.mesh, cc.rc.subset_a,
                                   cc.rc.color_of, cc.part, good),
            std::string());

  // An element moved to a foreign bucket (duplicate + purity violation).
  {
    ClusterSchedule bad = good;
    bad.rate_elements[0].push_back(bad.rate_elements[1].front());
    EXPECT_NE(check_cluster_schedule(cc.rc.mesh, cc.rc.subset_a,
                                     cc.rc.color_of, cc.part, bad),
              std::string());
  }
  // A dropped element: the buckets no longer tile the input list.
  {
    ClusterSchedule bad = good;
    bad.rate_elements[0].pop_back();
    bad.rate_sched[0] = build_element_schedule(
        cc.rc.mesh, bad.rate_elements[0], cc.rc.color_of, cc.rc.opts);
    EXPECT_NE(check_cluster_schedule(cc.rc.mesh, cc.rc.subset_a,
                                     cc.rc.color_of, cc.part, bad),
              std::string());
  }
  // A corrupted per-rate schedule (invariant 1 inside a bucket).
  {
    ClusterSchedule bad = good;
    ASSERT_GE(bad.rate_sched[0].items.size(), 2u);
    bad.rate_sched[0].items[0] = bad.rate_sched[0].items[1];
    const std::string err = check_cluster_schedule(
        cc.rc.mesh, cc.rc.subset_a, cc.rc.color_of, cc.part, bad);
    EXPECT_NE(err.find("schedule:"), std::string::npos) << err;
  }
  // A mutated partition rate: the rate must equal the min point level.
  {
    ClusterPartition bad_part = cc.part;
    const auto e = static_cast<std::size_t>(cc.rc.subset_a.front());
    bad_part.rate_of[e] += 1;
    EXPECT_NE(check_cluster_schedule(cc.rc.mesh, cc.rc.subset_a,
                                     cc.rc.color_of, bad_part, good),
              std::string());
  }
}

}  // namespace
}  // namespace sfg
