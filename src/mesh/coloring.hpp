#pragma once

/// \file coloring.hpp
/// Greedy element coloring on the shared-GLL-point adjacency (the same
/// graph §4.2's Cuthill-McKee sorting runs on): two elements get different
/// colors whenever they share a global point, so the nodal force scatter of
/// all elements within one color is race-free and a color can be dispatched
/// across threads without atomics.
///
/// Coloring composes with the RCM / multilevel element order: vertices are
/// colored in a caller-supplied processing order and batches preserve that
/// relative order, so the cache-blocking benefits of §4.2 survive inside
/// each color.

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "mesh/hex_mesh.hpp"

namespace sfg {

/// Greedy first-fit coloring of an undirected graph given as adjacency
/// lists. Vertices are assigned the smallest color unused by their already
/// colored neighbours, visiting them in `order` (a permutation of all
/// vertices; pass an RCM order to keep neighbouring elements in few,
/// contiguous colors). Returns color_of[vertex] in [0, num_colors).
std::vector<int> greedy_element_coloring(
    const std::vector<std::vector<int>>& adjacency,
    const std::vector<int>& order);

/// Number of distinct colors in a coloring (max + 1; 0 when empty).
int num_colors(const std::vector<int>& color_of);

/// Bucket a subset of elements (in processing order) by color: returns one
/// batch per color that actually occurs, ordered by ascending color, each
/// preserving the relative order of `elements`. Empty colors produce no
/// batch.
std::vector<std::vector<int>> color_batches(const std::vector<int>& elements,
                                            const std::vector<int>& color_of);

/// True when no two elements of the same color share a global point — the
/// property that makes the within-color force scatter race-free.
bool coloring_is_valid(const HexMesh& mesh,
                       const std::vector<int>& color_of);

// ---- threaded element schedule ----
//
// Color rounds: one round per color, ascending, each split into num_slots
// contiguous work units; within a color, elements keep their input order
// (the caller's processing order, which carries the §4.2 cache blocking).
// With a SINGLE slot there is no concurrency to protect, so every color
// goes into one unit of one round, colors still ascending.
//
// Invariants, proven at build time and re-checkable with
// check_element_schedule:
//  1. every element of the input list is scheduled exactly once;
//  2. work units of one round have pairwise-disjoint GLL point
//     footprints (concurrent execution is race-free without atomics);
//  3. at every global point, scheduled contributions arrive in strictly
//     ascending color order — one per-point summation order for every
//     slot/thread count, which is what makes them BIT-IDENTICAL.

struct ScheduleOptions {
  /// Concurrent work-unit slots per round. Usually the thread count;
  /// results are bit-identical across slot counts (invariant 3).
  int num_slots = 1;
  /// SIMD batch width for the Batched kernel variant (ISSUE 6): when > 1,
  /// a post-pass groups each work unit's items into contiguous batches of
  /// at most this many same-color elements (batch invariant B below) and
  /// records the cuts in ElementSchedule::batch_cut. 1 = no batching.
  int batch_lanes = 1;
  /// TEST ONLY: let a batch run across a color boundary inside a unit
  /// (only a one-slot unit spans several colors). Point-sharing
  /// neighbours always carry different colors, so this deliberately
  /// VIOLATES batch invariant B (disjoint lane footprints); the property
  /// harness uses it to prove check_element_schedule rejects a straddling
  /// batch. Never set in production code.
  bool unsafe_batch_across_colors = false;
};

/// A built schedule: `work` units index into the flat `items` element
/// list. Execute with ThreadPool::parallel_for_schedule (or inline, round
/// by round, unit by unit — same results by invariant 3).
struct ElementSchedule {
  std::vector<int> items;          ///< flattened element ids
  ThreadPool::WorkSchedule work;   ///< rounds of per-slot ranges in items
  int num_slots = 0;
  /// SIMD element batches (filled when ScheduleOptions::batch_lanes > 1):
  /// batch b is items[batch_cut[b], batch_cut[b+1]), never larger than
  /// batch_lanes, never crossing a work-unit boundary, and — batch
  /// invariant B — all lanes share one color, so by the coloring property
  /// their GLL point footprints are pairwise disjoint and the lanes can be
  /// packed/scattered as one SoA block. Invariants 1-3 are untouched: the
  /// batch pass only cuts units, it never moves an item.
  std::vector<std::size_t> batch_cut;
  int batch_lanes = 1;
  bool empty() const { return items.empty(); }
};

/// Build the color-round schedule for `elements` (any subset of the mesh,
/// in processing order) under a coloring of the whole mesh.
ElementSchedule build_element_schedule(const HexMesh& mesh,
                                       const std::vector<int>& elements,
                                       const std::vector<int>& color_of,
                                       const ScheduleOptions& opts);

/// Verify the three schedule invariants above against the mesh — plus,
/// for batched schedules (batch_lanes > 1), that the batch cuts tile the
/// item list inside unit boundaries and that every batch's lanes have
/// pairwise-disjoint point footprints and a single color (invariant B).
/// Returns an empty string when the schedule is sound, else a description
/// of the first violation. Used at schedule-build time (SFG_CHECK) and by
/// the property-test harness.
std::string check_element_schedule(const HexMesh& mesh,
                                   const std::vector<int>& elements,
                                   const std::vector<int>& color_of,
                                   const ElementSchedule& schedule);

// ---- clustered local time stepping (third-level pass, ISSUE 7) ----
//
// Rate-2 clustered LTS (Breuer & Heinecke): elements are bucketed into dt
// clusters from the per-element stable-dt estimate; cluster k marches at
// `2^k * dt_min`, so a fast crustal region no longer pins the whole mesh
// to its Courant bound. A cluster round is just another schedule level:
// within each round the existing color/batch machinery runs unchanged,
// one ElementSchedule per marching rate.
//
// Vocabulary:
//  * LEVEL of an element: floor(log2(dt_e / dt_min)), clamped to
//    [0, max_levels), then rate-2 smoothed so neighbouring levels differ
//    by at most one across any shared GLL point.
//  * LEVEL of a point: min level over all touching elements (with MPI the
//    caller min-exchanges this across ranks). A point of level L is "due"
//    — its Newmark update fires — every 2^L base substeps.
//  * RATE of an element: min point level over its own points. An element
//    must be evaluated whenever any of its points is due, so it marches
//    at the rate of its fastest point; by smoothing, rate ∈ {level-1,
//    level}.
//  * INTERFACE points: points gathered mid-stride by a faster-marching
//    toucher. Their displacement must be served by time interpolation
//    from the stride-start state instead of the (not yet advanced)
//    Newmark value.
//
// Cluster invariants, proven at build time (check_cluster_schedule +
// check_cluster_interfaces) and by the property harness:
//  C-A. the rate buckets tile the input element list exactly once, and
//       every bucket is pure: each element's bucket rate equals its
//       partition rate (min point level) — no cross-cluster merges and
//       no mutated assignments;
//  C-B. each bucket's ElementSchedule satisfies invariants 1-3 (and B)
//       above — the per-rate rounds are race-free and bit-stable;
//  C-C. levels are rate-2 smoothed: every element's level exceeds the
//       level of any of its points by at most one;
//  C-D (invariant C of the issue): over one full fast round of
//       2^(num_levels-1) substeps, every point receives a contribution
//       from EVERY touching element exactly once per due substep, and
//       any point gathered at a substep where it is NOT due is in the
//       interface interpolation set — i.e. it is served by a correctly-
//       interpolated displacement from its slower cluster.

/// TEST ONLY injection teeth for the cluster builders — each deliberately
/// breaks one cluster invariant so the property harness can prove the
/// checkers catch that builder-bug class. Never set in production code.
struct ClusterOptions {
  /// Bucket elements by their raw LEVEL instead of their marching RATE:
  /// elements demoted by a faster neighbouring point march too slowly and
  /// miss due substeps (mutated cluster assignment; violates C-A/C-D).
  bool unsafe_rate_from_own_level = false;
  /// Drop every point from the interface interpolation set: mid-stride
  /// gathers read stale un-interpolated displacement (violates C-D).
  bool unsafe_drop_interp_points = false;
  /// Merge the two slowest rate buckets into one marching at the faster
  /// rate (cross-cluster footprint merge; violates C-A).
  bool unsafe_merge_slowest_rates = false;
};

/// The cluster partition of one rank's mesh.
struct ClusterPartition {
  int num_levels = 1;            ///< cluster count (max level + 1)
  std::vector<int> level_of;     ///< per element, rate-2 smoothed
  std::vector<int> point_level;  ///< per global point: min toucher level
  std::vector<int> rate_of;      ///< per element: min point level
};

/// Bucket per-element stable dt estimates into LTS levels relative to the
/// base step dt_min: level = clamp(floor(log2(dt_e / dt_min)), 0,
/// max_levels - 1). Not yet smoothed.
std::vector<int> cluster_levels_from_dt(const std::vector<double>& element_dt,
                                        double dt_min, int max_levels);

/// Per-point min level over all local touching elements.
std::vector<int> cluster_point_levels(const HexMesh& mesh,
                                      const std::vector<int>& level_of);

/// One rate-2 smoothing sweep: clamp every element's level to (min level
/// over its points) + 1. `point_level` may already include remote minima
/// (min-exchanged). Returns the number of elements lowered; iterate to a
/// fixed point (with MPI, re-exchange point levels between sweeps).
int clamp_cluster_levels(const HexMesh& mesh,
                         const std::vector<int>& point_level,
                         std::vector<int>& level_of);

/// Derive rate_of / point_level from externally smoothed levels (the MPI
/// path: point_level already carries remote minima). num_levels is the
/// LOCAL max level + 1; the caller may widen it to the global count.
ClusterPartition finalize_cluster_partition(const HexMesh& mesh,
                                            std::vector<int> level_of,
                                            std::vector<int> point_level);

/// Serial convenience: smooth `level_of` to a fixed point on this rank
/// alone, then finalize.
ClusterPartition build_cluster_partition(const HexMesh& mesh,
                                         std::vector<int> level_of);

/// Per-point min marching RATE over all local touching elements (the
/// caller min-exchanges this across ranks; kNoTouchingRate where no
/// element touches the point).
std::vector<int> cluster_point_min_rate(const HexMesh& mesh,
                                        const std::vector<int>& rate_of);
constexpr int kNoTouchingRate = 1 << 20;

/// Cluster-interface interpolation set: the points whose displacement must
/// be time-interpolated mid-stride, with their levels. A point qualifies
/// iff its level L > 0 and some toucher (on any rank — hence the
/// min-exchanged `point_min_rate`) marches at a rate below L. Points are
/// ascending.
struct InterfaceSet {
  std::vector<int> points;
  std::vector<int> level;
};
InterfaceSet cluster_interface_points(const HexMesh& mesh,
                                      const std::vector<int>& point_level,
                                      const std::vector<int>& point_min_rate,
                                      const ClusterOptions& copts = {});

/// A built cluster schedule for one element subset: one ElementSchedule
/// per occupied marching rate, ascending. Rate r's schedule runs on the
/// substeps where (n+1) is a multiple of 2^r.
struct ClusterSchedule {
  std::vector<int> rates;                     ///< ascending, distinct
  std::vector<std::vector<int>> rate_elements;
  std::vector<ElementSchedule> rate_sched;
  bool empty() const { return rates.empty(); }
};

/// Bucket `elements` by marching rate and build one ElementSchedule per
/// bucket (same opts as build_element_schedule — the color/batch
/// machinery runs unchanged within each cluster round).
ClusterSchedule build_cluster_schedule(const HexMesh& mesh,
                                       const std::vector<int>& elements,
                                       const std::vector<int>& color_of,
                                       const ClusterPartition& part,
                                       const ScheduleOptions& opts,
                                       const ClusterOptions& copts = {});

/// Verify cluster invariants C-A, C-B and C-C against the mesh: bucket
/// tiling + purity, per-rate schedule soundness (check_element_schedule on
/// every bucket), rate/level/point-level consistency and rate-2 smoothing.
/// Empty string when sound, else the first violation.
std::string check_cluster_schedule(const HexMesh& mesh,
                                   const std::vector<int>& elements,
                                   const std::vector<int>& color_of,
                                   const ClusterPartition& part,
                                   const ClusterSchedule& cs);

/// Verify cluster invariant C-D by simulating one full fast round of
/// 2^(num_levels-1) substeps: every point must collect a contribution from
/// every touching element of `elements` exactly once per due substep, and
/// every point gathered mid-stride (at a non-due substep) must be in the
/// interpolation set. `iset` may be a superset of the locally-derivable
/// interface points (remote fast touchers). Empty string when sound.
std::string check_cluster_interfaces(const HexMesh& mesh,
                                     const std::vector<int>& elements,
                                     const ClusterPartition& part,
                                     const InterfaceSet& iset);

}  // namespace sfg
