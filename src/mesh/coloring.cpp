#include "mesh/coloring.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace sfg {

std::vector<int> greedy_element_coloring(
    const std::vector<std::vector<int>>& adjacency,
    const std::vector<int>& order) {
  const std::size_t n = adjacency.size();
  SFG_CHECK_MSG(order.size() == n,
                "coloring order must be a permutation of all vertices");
  std::vector<int> color_of(n, -1);
  std::vector<int> used;  // scratch: colors taken by neighbours
  for (int v : order) {
    SFG_CHECK(v >= 0 && static_cast<std::size_t>(v) < n);
    SFG_CHECK_MSG(color_of[static_cast<std::size_t>(v)] < 0,
                  "vertex " << v << " appears twice in the coloring order");
    used.clear();
    for (int w : adjacency[static_cast<std::size_t>(v)]) {
      const int c = color_of[static_cast<std::size_t>(w)];
      if (c >= 0) used.push_back(c);
    }
    std::sort(used.begin(), used.end());
    int c = 0;
    for (int u : used) {
      if (u > c) break;  // first gap found
      if (u == c) ++c;
    }
    color_of[static_cast<std::size_t>(v)] = c;
  }
  return color_of;
}

int num_colors(const std::vector<int>& color_of) {
  int max_c = -1;
  for (int c : color_of) max_c = std::max(max_c, c);
  return max_c + 1;
}

std::vector<std::vector<int>> color_batches(const std::vector<int>& elements,
                                            const std::vector<int>& color_of) {
  int nc = 0;
  for (int e : elements) {
    SFG_CHECK(e >= 0 && static_cast<std::size_t>(e) < color_of.size());
    nc = std::max(nc, color_of[static_cast<std::size_t>(e)] + 1);
  }
  std::vector<std::vector<int>> batches(static_cast<std::size_t>(nc));
  for (int e : elements)
    batches[static_cast<std::size_t>(color_of[static_cast<std::size_t>(e)])]
        .push_back(e);
  batches.erase(std::remove_if(batches.begin(), batches.end(),
                               [](const std::vector<int>& b) {
                                 return b.empty();
                               }),
                batches.end());
  return batches;
}

namespace {

/// Marker for a global point no batch or round has visited yet.
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Append `batch` as one round split into num_slots balanced contiguous
/// units.
void emit_round(const std::vector<int>& batch, int num_slots,
                ElementSchedule& out) {
  if (batch.empty()) return;
  const std::size_t base = out.items.size();
  out.items.insert(out.items.end(), batch.begin(), batch.end());
  ThreadPool::WorkRound round;
  const std::size_t n = batch.size();
  const std::size_t chunk =
      (n + static_cast<std::size_t>(num_slots) - 1) /
      static_cast<std::size_t>(num_slots);
  for (int s = 0; s < num_slots; ++s) {
    const std::size_t b = std::min(n, static_cast<std::size_t>(s) * chunk);
    const std::size_t e = std::min(n, b + chunk);
    round.units.push_back({base + b, base + e});
  }
  out.work.rounds.push_back(std::move(round));
}

/// Batch-formation post-pass: cut each work unit's items into
/// contiguous same-color runs of at most batch_lanes elements, recording
/// the cuts. Items never move, so invariants 1-3 are untouched. Same-color
/// lanes share no GLL point by the coloring property, which is batch
/// invariant B (disjoint lane footprints).
void form_batches(const std::vector<int>& color_of,
                  const ScheduleOptions& opts, ElementSchedule& out) {
  out.batch_lanes = opts.batch_lanes;
  out.batch_cut.clear();
  if (opts.batch_lanes <= 1) return;
  const auto lanes = static_cast<std::size_t>(opts.batch_lanes);
  auto color = [&](std::size_t i) {
    return color_of[static_cast<std::size_t>(out.items[i])];
  };
  // Units were emitted in item order, so walking them tiles the list.
  out.batch_cut.push_back(0);
  for (const auto& round : out.work.rounds)
    for (const ThreadPool::WorkUnit& u : round.units) {
      std::size_t start = u.begin;
      for (std::size_t i = u.begin; i < u.end; ++i) {
        const bool full = i + 1 - start == lanes;
        const bool color_break = i + 1 < u.end && color(i + 1) != color(i) &&
                                 !opts.unsafe_batch_across_colors;
        if (i + 1 == u.end || full || color_break) {
          out.batch_cut.push_back(i + 1);
          start = i + 1;
        }
      }
    }
}

}  // namespace

ElementSchedule build_element_schedule(const HexMesh& mesh,
                                       const std::vector<int>& elements,
                                       const std::vector<int>& color_of,
                                       const ScheduleOptions& opts) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK_MSG(opts.num_slots >= 1, "schedule needs at least one slot");
  SFG_CHECK_MSG(opts.batch_lanes >= 1, "batch_lanes must be positive");
  ElementSchedule out;
  out.num_slots = opts.num_slots;
  out.items.reserve(elements.size());

  const std::vector<std::vector<int>> batches =
      color_batches(elements, color_of);

  if (opts.num_slots == 1) {
    // One consumer: nothing to keep disjoint, so one unit carries every
    // color in ascending order (invariant 3) with no barrier between them.
    for (const auto& b : batches)
      out.items.insert(out.items.end(), b.begin(), b.end());
    if (!out.items.empty()) {
      ThreadPool::WorkRound round;
      round.units.push_back({0, out.items.size()});
      out.work.rounds.push_back(std::move(round));
    }
  } else {
    for (const auto& b : batches) emit_round(b, opts.num_slots, out);
  }
  form_batches(color_of, opts, out);
  return out;
}

std::string check_element_schedule(const HexMesh& mesh,
                                   const std::vector<int>& elements,
                                   const std::vector<int>& color_of,
                                   const ElementSchedule& schedule) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(color_of.size() == static_cast<std::size_t>(mesh.nspec));
  std::ostringstream err;
  const std::size_t n = elements.size();

  // Invariant 1: the flat item list is exactly the input element set.
  if (schedule.items.size() != n) {
    err << "schedule holds " << schedule.items.size() << " items, expected "
        << n;
    return err.str();
  }
  std::vector<int> times(static_cast<std::size_t>(mesh.nspec), 0);
  for (int e : schedule.items) {
    if (e < 0 || e >= mesh.nspec) {
      err << "scheduled element " << e << " out of range";
      return err.str();
    }
    if (++times[static_cast<std::size_t>(e)] > 1) {
      err << "element " << e << " scheduled more than once";
      return err.str();
    }
  }
  for (int e : elements)
    if (times[static_cast<std::size_t>(e)] != 1) {
      err << "element " << e << " of the input list is never scheduled";
      return err.str();
    }

  // Work units must tile the item list exactly once.
  std::vector<char> covered(n, 0);
  for (std::size_t r = 0; r < schedule.work.rounds.size(); ++r) {
    for (const ThreadPool::WorkUnit& u : schedule.work.rounds[r].units) {
      if (u.begin > u.end || u.end > n) {
        err << "round " << r << ": unit range [" << u.begin << ", " << u.end
            << ") out of bounds";
        return err.str();
      }
      for (std::size_t i = u.begin; i < u.end; ++i) {
        if (covered[i]) {
          err << "item " << i << " covered by two work units";
          return err.str();
        }
        covered[i] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!covered[i]) {
      err << "item " << i << " (element " << schedule.items[i]
          << ") not covered by any work unit";
      return err.str();
    }

  // Batched schedules: the cuts must tile the item list without crossing
  // a unit boundary, and every batch's lanes must have pairwise-disjoint
  // point footprints (invariant B — checked FIRST, it is the property the
  // SoA scatter relies on) and carry a single color.
  if (schedule.batch_lanes > 1) {
    const auto& cut = schedule.batch_cut;
    if (cut.empty() || cut.front() != 0 || cut.back() != n) {
      err << "batch cuts do not tile the item list (got " << cut.size()
          << " cuts over " << n << " items)";
      return err.str();
    }
    std::vector<ThreadPool::WorkUnit> units;
    for (const auto& round : schedule.work.rounds)
      for (const ThreadPool::WorkUnit& u : round.units)
        if (u.begin < u.end) units.push_back(u);
    std::sort(units.begin(), units.end(),
              [](const ThreadPool::WorkUnit& a,
                 const ThreadPool::WorkUnit& b) { return a.begin < b.begin; });
    const int n3b = mesh.ngll3();
    std::vector<std::size_t> pt_batch(static_cast<std::size_t>(mesh.nglob),
                                      kNone);
    std::vector<int> pt_elem(static_cast<std::size_t>(mesh.nglob), -1);
    std::size_t unit_at = 0;
    for (std::size_t b = 0; b + 1 < cut.size(); ++b) {
      const std::size_t b0 = cut[b];
      const std::size_t b1 = cut[b + 1];
      if (b1 <= b0) {
        err << "batch " << b << " is empty or cuts are not ascending";
        return err.str();
      }
      if (b1 - b0 > static_cast<std::size_t>(schedule.batch_lanes)) {
        err << "batch " << b << " holds " << (b1 - b0)
            << " elements, more than batch_lanes=" << schedule.batch_lanes;
        return err.str();
      }
      while (unit_at < units.size() && units[unit_at].end <= b0) ++unit_at;
      if (unit_at >= units.size() || b0 < units[unit_at].begin ||
          b1 > units[unit_at].end) {
        err << "batch " << b << " [" << b0 << ", " << b1
            << ") straddles a work-unit boundary";
        return err.str();
      }
      for (std::size_t i = b0; i < b1; ++i) {
        const int e = schedule.items[i];
        const int* ib = mesh.ibool.data() + mesh.local_offset(e);
        for (int p = 0; p < n3b; ++p) {
          const auto g = static_cast<std::size_t>(ib[p]);
          if (pt_batch[g] == b && pt_elem[g] != e) {
            err << "batch " << b << ": lanes (elements " << pt_elem[g]
                << " and " << e << ") share global point " << g
                << " — SoA lane footprints must be disjoint";
            return err.str();
          }
          pt_batch[g] = b;
          pt_elem[g] = e;
        }
      }
      for (std::size_t i = b0 + 1; i < b1; ++i)
        if (color_of[static_cast<std::size_t>(schedule.items[i])] !=
            color_of[static_cast<std::size_t>(schedule.items[b0])]) {
          err << "batch " << b << " mixes colors "
              << color_of[static_cast<std::size_t>(schedule.items[b0])]
              << " and "
              << color_of[static_cast<std::size_t>(schedule.items[i])];
          return err.str();
        }
    }
  }

  // Invariant 2: within a round, concurrently-runnable units have
  // pairwise-disjoint GLL point footprints. Invariant 3: at every global
  // point, contributions arrive in strictly ascending color order (the
  // walk below is a valid per-point linearization exactly because of
  // invariant 2: at most one unit per round touches a point).
  const int n3 = mesh.ngll3();
  const auto ng = static_cast<std::size_t>(mesh.nglob);
  std::vector<std::size_t> pt_round(ng, kNone);
  std::vector<std::size_t> pt_unit(ng, 0);
  std::vector<int> last_color(ng, -1);
  for (std::size_t r = 0; r < schedule.work.rounds.size(); ++r) {
    const auto& units = schedule.work.rounds[r].units;
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (std::size_t i = units[u].begin; i < units[u].end; ++i) {
        const int e = schedule.items[i];
        const int c = color_of[static_cast<std::size_t>(e)];
        const int* ib = mesh.ibool.data() + mesh.local_offset(e);
        for (int p = 0; p < n3; ++p) {
          const auto g = static_cast<std::size_t>(ib[p]);
          if (pt_round[g] == r && pt_unit[g] != u) {
            err << "round " << r << ": units " << pt_unit[g] << " and " << u
                << " share global point " << g << " (element " << e << ")";
            return err.str();
          }
          pt_round[g] = r;
          pt_unit[g] = u;
          if (c <= last_color[g]) {
            err << "global point " << g << ": color " << c << " of element "
                << e << " scheduled after color " << last_color[g]
                << " — per-point summation order is not ascending in "
                   "color";
            return err.str();
          }
          last_color[g] = c;
        }
      }
    }
  }
  return std::string();
}

// ---- clustered local time stepping (ISSUE 7) ----

std::vector<int> cluster_levels_from_dt(const std::vector<double>& element_dt,
                                        double dt_min, int max_levels) {
  SFG_CHECK_MSG(dt_min > 0.0, "LTS base step must be positive");
  SFG_CHECK_MSG(max_levels >= 1, "LTS needs at least one level");
  std::vector<int> level(element_dt.size(), 0);
  for (std::size_t e = 0; e < element_dt.size(); ++e) {
    SFG_CHECK_MSG(element_dt[e] >= dt_min,
                  "element " << e << " stable dt " << element_dt[e]
                             << " is below the base step " << dt_min
                             << " — the base step must be the global minimum");
    const int k =
        static_cast<int>(std::floor(std::log2(element_dt[e] / dt_min)));
    level[e] = std::clamp(k, 0, max_levels - 1);
  }
  return level;
}

std::vector<int> cluster_point_levels(const HexMesh& mesh,
                                      const std::vector<int>& level_of) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(level_of.size() == static_cast<std::size_t>(mesh.nspec));
  std::vector<int> pl(static_cast<std::size_t>(mesh.nglob),
                      std::numeric_limits<int>::max());
  const int n3 = mesh.ngll3();
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    const int lv = level_of[static_cast<std::size_t>(e)];
    for (int p = 0; p < n3; ++p) {
      int& v = pl[static_cast<std::size_t>(ib[p])];
      v = std::min(v, lv);
    }
  }
  for (int& v : pl)
    if (v == std::numeric_limits<int>::max()) v = 0;
  return pl;
}

int clamp_cluster_levels(const HexMesh& mesh,
                         const std::vector<int>& point_level,
                         std::vector<int>& level_of) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(point_level.size() == static_cast<std::size_t>(mesh.nglob));
  SFG_CHECK(level_of.size() == static_cast<std::size_t>(mesh.nspec));
  const int n3 = mesh.ngll3();
  int changed = 0;
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    int cap = std::numeric_limits<int>::max();
    for (int p = 0; p < n3; ++p)
      cap = std::min(cap, point_level[static_cast<std::size_t>(ib[p])] + 1);
    int& lv = level_of[static_cast<std::size_t>(e)];
    if (lv > cap) {
      lv = cap;
      ++changed;
    }
  }
  return changed;
}

ClusterPartition finalize_cluster_partition(const HexMesh& mesh,
                                            std::vector<int> level_of,
                                            std::vector<int> point_level) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(level_of.size() == static_cast<std::size_t>(mesh.nspec));
  SFG_CHECK(point_level.size() == static_cast<std::size_t>(mesh.nglob));
  ClusterPartition part;
  part.level_of = std::move(level_of);
  part.point_level = std::move(point_level);
  part.rate_of.assign(static_cast<std::size_t>(mesh.nspec), 0);
  const int n3 = mesh.ngll3();
  int max_level = 0;
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    int r = std::numeric_limits<int>::max();
    for (int p = 0; p < n3; ++p)
      r = std::min(r, part.point_level[static_cast<std::size_t>(ib[p])]);
    part.rate_of[static_cast<std::size_t>(e)] = r;
    max_level =
        std::max(max_level, part.level_of[static_cast<std::size_t>(e)]);
  }
  part.num_levels = max_level + 1;
  return part;
}

ClusterPartition build_cluster_partition(const HexMesh& mesh,
                                         std::vector<int> level_of) {
  std::vector<int> point_level;
  for (;;) {
    point_level = cluster_point_levels(mesh, level_of);
    if (clamp_cluster_levels(mesh, point_level, level_of) == 0) break;
  }
  return finalize_cluster_partition(mesh, std::move(level_of),
                                    std::move(point_level));
}

std::vector<int> cluster_point_min_rate(const HexMesh& mesh,
                                        const std::vector<int>& rate_of) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(rate_of.size() == static_cast<std::size_t>(mesh.nspec));
  std::vector<int> mr(static_cast<std::size_t>(mesh.nglob), kNoTouchingRate);
  const int n3 = mesh.ngll3();
  for (int e = 0; e < mesh.nspec; ++e) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    const int r = rate_of[static_cast<std::size_t>(e)];
    for (int p = 0; p < n3; ++p) {
      int& v = mr[static_cast<std::size_t>(ib[p])];
      v = std::min(v, r);
    }
  }
  return mr;
}

InterfaceSet cluster_interface_points(const HexMesh& mesh,
                                      const std::vector<int>& point_level,
                                      const std::vector<int>& point_min_rate,
                                      const ClusterOptions& copts) {
  SFG_CHECK(point_level.size() == static_cast<std::size_t>(mesh.nglob));
  SFG_CHECK(point_min_rate.size() == static_cast<std::size_t>(mesh.nglob));
  InterfaceSet out;
  if (copts.unsafe_drop_interp_points) return out;
  for (int g = 0; g < mesh.nglob; ++g) {
    const int lv = point_level[static_cast<std::size_t>(g)];
    if (lv > 0 && point_min_rate[static_cast<std::size_t>(g)] < lv) {
      out.points.push_back(g);
      out.level.push_back(lv);
    }
  }
  return out;
}

ClusterSchedule build_cluster_schedule(const HexMesh& mesh,
                                       const std::vector<int>& elements,
                                       const std::vector<int>& color_of,
                                       const ClusterPartition& part,
                                       const ScheduleOptions& opts,
                                       const ClusterOptions& copts) {
  SFG_CHECK(part.level_of.size() == static_cast<std::size_t>(mesh.nspec));
  SFG_CHECK(part.rate_of.size() == static_cast<std::size_t>(mesh.nspec));
  const std::vector<int>& key =
      copts.unsafe_rate_from_own_level ? part.level_of : part.rate_of;
  int max_rate = 0;
  for (int e : elements) {
    SFG_CHECK(e >= 0 && e < mesh.nspec);
    max_rate = std::max(max_rate, key[static_cast<std::size_t>(e)]);
  }
  std::vector<std::vector<int>> buckets(static_cast<std::size_t>(max_rate) +
                                        1);
  for (int e : elements)
    buckets[static_cast<std::size_t>(key[static_cast<std::size_t>(e)])]
        .push_back(e);

  ClusterSchedule cs;
  for (int r = 0; r <= max_rate; ++r) {
    auto& b = buckets[static_cast<std::size_t>(r)];
    if (b.empty()) continue;
    cs.rates.push_back(r);
    cs.rate_elements.push_back(std::move(b));
  }
  if (copts.unsafe_merge_slowest_rates && cs.rates.size() >= 2) {
    auto& dst = cs.rate_elements[cs.rate_elements.size() - 2];
    const auto& src = cs.rate_elements.back();
    dst.insert(dst.end(), src.begin(), src.end());
    cs.rate_elements.pop_back();
    cs.rates.pop_back();
  }
  cs.rate_sched.reserve(cs.rates.size());
  for (const auto& lst : cs.rate_elements)
    cs.rate_sched.push_back(
        build_element_schedule(mesh, lst, color_of, opts));
  return cs;
}

std::string check_cluster_schedule(const HexMesh& mesh,
                                   const std::vector<int>& elements,
                                   const std::vector<int>& color_of,
                                   const ClusterPartition& part,
                                   const ClusterSchedule& cs) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(part.level_of.size() == static_cast<std::size_t>(mesh.nspec));
  SFG_CHECK(part.rate_of.size() == static_cast<std::size_t>(mesh.nspec));
  SFG_CHECK(part.point_level.size() == static_cast<std::size_t>(mesh.nglob));
  std::ostringstream err;

  if (cs.rate_elements.size() != cs.rates.size() ||
      cs.rate_sched.size() != cs.rates.size()) {
    err << "cluster schedule has " << cs.rates.size() << " rates but "
        << cs.rate_elements.size() << " buckets and " << cs.rate_sched.size()
        << " schedules";
    return err.str();
  }
  for (std::size_t i = 0; i < cs.rates.size(); ++i) {
    if (cs.rates[i] < 0 || cs.rates[i] >= part.num_levels) {
      err << "cluster rate " << cs.rates[i] << " outside [0, "
          << part.num_levels << ")";
      return err.str();
    }
    if (i > 0 && cs.rates[i] <= cs.rates[i - 1]) {
      err << "cluster rates not strictly ascending";
      return err.str();
    }
  }

  // C-A: the rate buckets tile the input element list exactly once...
  std::vector<int> times(static_cast<std::size_t>(mesh.nspec), 0);
  std::size_t total = 0;
  for (const auto& bucket : cs.rate_elements)
    for (int e : bucket) {
      if (e < 0 || e >= mesh.nspec) {
        err << "clustered element " << e << " out of range";
        return err.str();
      }
      if (++times[static_cast<std::size_t>(e)] > 1) {
        err << "element " << e << " appears in two cluster buckets";
        return err.str();
      }
      ++total;
    }
  if (total != elements.size()) {
    err << "cluster buckets hold " << total << " elements, expected "
        << elements.size();
    return err.str();
  }
  for (int e : elements)
    if (times[static_cast<std::size_t>(e)] != 1) {
      err << "element " << e << " of the input list is in no cluster bucket";
      return err.str();
    }

  // ... and every bucket is pure: bucket rate == marching rate. Catches
  // both mutated assignments (an element bucketed by its raw level marches
  // slower than its fastest point demands) and cross-cluster merges.
  for (std::size_t i = 0; i < cs.rates.size(); ++i)
    for (int e : cs.rate_elements[i])
      if (part.rate_of[static_cast<std::size_t>(e)] != cs.rates[i]) {
        err << "cluster bucket at rate " << cs.rates[i]
            << " contains element " << e << " marching at rate "
            << part.rate_of[static_cast<std::size_t>(e)]
            << " — cross-cluster merge or mutated assignment";
        return err.str();
      }

  // Rate and point-level consistency + C-C (rate-2 smoothing).
  const int n3 = mesh.ngll3();
  for (int e : elements) {
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    const int lv = part.level_of[static_cast<std::size_t>(e)];
    int min_pl = std::numeric_limits<int>::max();
    for (int p = 0; p < n3; ++p) {
      const auto g = static_cast<std::size_t>(ib[p]);
      const int pl = part.point_level[g];
      min_pl = std::min(min_pl, pl);
      if (pl > lv) {
        err << "global point " << ib[p] << " level " << pl
            << " exceeds the level " << lv << " of touching element " << e;
        return err.str();
      }
      if (lv > pl + 1) {
        err << "cluster levels not rate-2 smoothed: element " << e
            << " level " << lv << " exceeds point " << ib[p] << " level "
            << pl << " by more than one";
        return err.str();
      }
    }
    if (part.rate_of[static_cast<std::size_t>(e)] != min_pl) {
      err << "element " << e << " cluster rate "
          << part.rate_of[static_cast<std::size_t>(e)]
          << " disagrees with its min point level " << min_pl;
      return err.str();
    }
  }

  // C-B: every bucket's schedule satisfies invariants 1-3 (and B).
  for (std::size_t i = 0; i < cs.rates.size(); ++i) {
    const std::string sub = check_element_schedule(
        mesh, cs.rate_elements[i], color_of, cs.rate_sched[i]);
    if (!sub.empty()) {
      err << "rate " << cs.rates[i] << " schedule: " << sub;
      return err.str();
    }
  }
  return std::string();
}

std::string check_cluster_interfaces(const HexMesh& mesh,
                                     const std::vector<int>& elements,
                                     const ClusterPartition& part,
                                     const InterfaceSet& iset) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(part.rate_of.size() == static_cast<std::size_t>(mesh.nspec));
  SFG_CHECK(part.point_level.size() == static_cast<std::size_t>(mesh.nglob));
  std::ostringstream err;
  const auto ng = static_cast<std::size_t>(mesh.nglob);

  if (iset.level.size() != iset.points.size()) {
    err << "interpolation set holds " << iset.points.size() << " points but "
        << iset.level.size() << " levels";
    return err.str();
  }
  std::vector<char> in_iset(ng, 0);
  for (std::size_t i = 0; i < iset.points.size(); ++i) {
    const int g = iset.points[i];
    if (g < 0 || g >= mesh.nglob) {
      err << "interpolation point " << g << " out of range";
      return err.str();
    }
    if (i > 0 && g <= iset.points[i - 1]) {
      err << "interpolation points not strictly ascending";
      return err.str();
    }
    if (iset.level[i] != part.point_level[static_cast<std::size_t>(g)]) {
      err << "interpolation point " << g << " carries level "
          << iset.level[i] << ", partition says "
          << part.point_level[static_cast<std::size_t>(g)];
      return err.str();
    }
    if (iset.level[i] <= 0) {
      err << "level-0 point " << g
          << " in the interpolation set — it is due every substep";
      return err.str();
    }
    in_iset[static_cast<std::size_t>(g)] = 1;
  }

  const int n3 = mesh.ngll3();
  std::vector<int> touchers(ng, 0);
  for (int e : elements) {
    SFG_CHECK(e >= 0 && e < mesh.nspec);
    const int* ib = mesh.ibool.data() + mesh.local_offset(e);
    for (int p = 0; p < n3; ++p)
      ++touchers[static_cast<std::size_t>(ib[p])];
  }

  // C-D: simulate one full fast round. Rate r fires at the substeps where
  // (n+1) is a multiple of 2^r; a point of level L is due where (n+1) is a
  // multiple of 2^L. The solver zeroes accelerations every substep and
  // discards the junk sitting at not-due points, so the invariant is
  // per-substep: at every DUE substep a point must receive exactly one
  // contribution from every touching element (all of them fire there,
  // since 2^rate divides 2^L); any contribution landing at a NOT-due
  // substep is a mid-stride gather — the firing element read the point's
  // displacement between its Newmark updates — and demands interpolation.
  const int stride = 1 << (part.num_levels - 1);
  std::vector<int> got(ng, 0);
  for (int n = 0; n < stride; ++n) {
    std::fill(got.begin(), got.end(), 0);
    for (int e : elements) {
      const int r = part.rate_of[static_cast<std::size_t>(e)];
      if (((n + 1) & ((1 << r) - 1)) != 0) continue;
      const int* ib = mesh.ibool.data() + mesh.local_offset(e);
      for (int p = 0; p < n3; ++p)
        ++got[static_cast<std::size_t>(ib[p])];
    }
    for (std::size_t g = 0; g < ng; ++g) {
      if (touchers[g] == 0) continue;
      const int lv = part.point_level[g];
      if (((n + 1) & ((1 << lv) - 1)) == 0) {
        if (got[g] != touchers[g]) {
          err << "global point " << g << " collected " << got[g]
              << " contributions at its due substep " << n
              << ", expected one from each of its " << touchers[g]
              << " touching elements";
          return err.str();
        }
      } else if (got[g] != 0 && !in_iset[g]) {
        err << "global point " << g << " (level " << lv
            << ") is gathered mid-stride at substep " << n
            << " but missing from the interpolation set — skipped "
               "interface interpolation";
        return err.str();
      }
    }
  }
  return std::string();
}

bool coloring_is_valid(const HexMesh& mesh,
                       const std::vector<int>& color_of) {
  SFG_CHECK(mesh.numbered());
  SFG_CHECK(color_of.size() == static_cast<std::size_t>(mesh.nspec));
  for (int c : color_of)
    if (c < 0) return false;
  // Invert ibool (as element_adjacency does) and require all elements
  // touching one global point to carry distinct colors. A point is shared
  // by at most 8 corner-adjacent elements, so the per-point scan is cheap.
  std::vector<std::vector<int>> touching(
      static_cast<std::size_t>(mesh.nglob));
  const int ngll3 = mesh.ngll3();
  for (int e = 0; e < mesh.nspec; ++e) {
    const std::size_t off = mesh.local_offset(e);
    for (int p = 0; p < ngll3; ++p) {
      auto& lst = touching[static_cast<std::size_t>(
          mesh.ibool[off + static_cast<std::size_t>(p)])];
      if (lst.empty() || lst.back() != e) lst.push_back(e);
    }
  }
  for (const auto& lst : touching) {
    for (std::size_t a = 0; a < lst.size(); ++a)
      for (std::size_t b = a + 1; b < lst.size(); ++b)
        if (color_of[static_cast<std::size_t>(lst[a])] ==
            color_of[static_cast<std::size_t>(lst[b])])
          return false;
  }
  return true;
}

}  // namespace sfg
