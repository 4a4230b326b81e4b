// Tests for the cubed-sphere global mesher (paper §3, Figure 4): the
// gnomonic mapping, cross-chunk point identity, radial layering against
// PREM discontinuities, slice decomposition and mesher statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "common/constants.hpp"
#include "mesh/jacobian.hpp"
#include "mesh/quality.hpp"
#include "sphere/cubed_sphere.hpp"
#include "sphere/mesher.hpp"

namespace sfg {
namespace {

TEST(CubedSphere, DirectionsAreUnitVectors) {
  const std::int64_t n = 8;
  for (std::int64_t a : {std::int64_t{0}, std::int64_t{3}, std::int64_t{8}}) {
    for (std::int64_t b : {std::int64_t{0}, std::int64_t{5}, std::int64_t{8}}) {
      const auto d = cube_direction(a, b, n, n);  // on the +z face
      const double norm =
          std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
      EXPECT_NEAR(norm, 1.0, 1e-14);
    }
  }
}

TEST(CubedSphere, FaceCentersMapToAxes) {
  const std::int64_t n = 8;
  auto center = [&](int chunk) {
    const auto abc = chunk_to_cube(chunk, n / 2, n / 2, n);
    return cube_direction(abc[0], abc[1], abc[2], n);
  };
  EXPECT_NEAR(center(0)[0], 1.0, 1e-14);   // +x
  EXPECT_NEAR(center(1)[0], -1.0, 1e-14);  // -x
  EXPECT_NEAR(center(2)[1], 1.0, 1e-14);   // +y
  EXPECT_NEAR(center(3)[1], -1.0, 1e-14);  // -y
  EXPECT_NEAR(center(4)[2], 1.0, 1e-14);   // +z
  EXPECT_NEAR(center(5)[2], -1.0, 1e-14);  // -z
}

TEST(CubedSphere, SurfaceKeyCountsMatchClosedForm) {
  // Enumerating all chunk lattice points must produce exactly 6 n^2 + 2
  // distinct keys (shared edges and corners deduplicated).
  for (std::int64_t n : {std::int64_t{2}, std::int64_t{4}, std::int64_t{8}}) {
    std::unordered_set<std::int64_t> keys;
    for (int chunk = 0; chunk < kChunkFaceCount; ++chunk)
      for (std::int64_t u = 0; u <= n; ++u)
        for (std::int64_t v = 0; v <= n; ++v) {
          const auto abc = chunk_to_cube(chunk, u, v, n);
          keys.insert(cube_surface_key(abc[0], abc[1], abc[2], n));
        }
    EXPECT_EQ(static_cast<std::int64_t>(keys.size()),
              cube_surface_point_count(n))
        << "n=" << n;
  }
}

TEST(CubedSphere, ChunkEdgePointsAgreeGeometrically) {
  // Identical keys must imply identical directions no matter which chunk
  // computed them: sample every edge point of every chunk pair.
  const std::int64_t n = 6;
  std::unordered_map<std::int64_t, std::array<double, 3>> seen;
  for (int chunk = 0; chunk < kChunkFaceCount; ++chunk) {
    for (std::int64_t u = 0; u <= n; ++u) {
      for (std::int64_t v = 0; v <= n; ++v) {
        if (!on_chunk_edge(u, v, n)) continue;
        const auto abc = chunk_to_cube(chunk, u, v, n);
        const auto key = cube_surface_key(abc[0], abc[1], abc[2], n);
        const auto dir = cube_direction(abc[0], abc[1], abc[2], n);
        auto it = seen.find(key);
        if (it == seen.end()) {
          seen.emplace(key, dir);
        } else {
          for (int c = 0; c < 3; ++c)
            EXPECT_NEAR(dir[c], it->second[c], 1e-14);
        }
      }
    }
  }
}

TEST(CubedSphere, CornerSharedByThreeChunks) {
  const std::int64_t n = 4;
  std::unordered_map<std::int64_t, int> touch_count;
  for (int chunk = 0; chunk < kChunkFaceCount; ++chunk) {
    std::set<std::int64_t> chunk_keys;  // dedupe within a chunk
    for (std::int64_t u : {std::int64_t{0}, n}) {
      for (std::int64_t v : {std::int64_t{0}, n}) {
        const auto abc = chunk_to_cube(chunk, u, v, n);
        chunk_keys.insert(cube_surface_key(abc[0], abc[1], abc[2], n));
      }
    }
    for (auto k : chunk_keys) ++touch_count[k];
  }
  EXPECT_EQ(touch_count.size(), 8u);  // cube corners
  for (const auto& [key, count] : touch_count) EXPECT_EQ(count, 3);
}

TEST(RadialLayers, PremLayeringHonorsMajorDiscontinuities) {
  PremModel prem;
  const auto layers = build_radial_layers(prem, 0.55 * kIcbRadiusM, 64);
  ASSERT_GE(layers.size(), 4u);
  // Layers tile [r_min, surface] without gaps.
  for (std::size_t i = 0; i + 1 < layers.size(); ++i)
    EXPECT_DOUBLE_EQ(layers[i].r_top, layers[i + 1].r_bot);
  EXPECT_DOUBLE_EQ(layers.back().r_top, kEarthRadiusM);
  // A boundary must fall exactly at the CMB and ICB, with the outer core
  // flagged fluid.
  bool cmb_found = false, icb_found = false, fluid_found = false;
  for (const auto& l : layers) {
    if (std::abs(l.r_top - kCmbRadiusM) < 1.0) cmb_found = true;
    if (std::abs(l.r_top - kIcbRadiusM) < 1.0) icb_found = true;
    if (l.fluid) {
      fluid_found = true;
      EXPECT_GE(l.r_bot, kIcbRadiusM - 1.0);
      EXPECT_LE(l.r_top, kCmbRadiusM + 1.0);
    }
  }
  EXPECT_TRUE(cmb_found);
  EXPECT_TRUE(icb_found);
  EXPECT_TRUE(fluid_found);
}

TEST(RadialLayers, HigherNexGivesMoreRadialElements) {
  PremModel prem;
  const auto coarse = build_radial_layers(prem, 2.0e6, 16);
  const auto fine = build_radial_layers(prem, 2.0e6, 64);
  EXPECT_GT(total_radial_elements(fine), 2 * total_radial_elements(coarse));
}

TEST(Mesher, SingleChunkShellCountsAndVolume) {
  // One chunk over a thin homogeneous shell: nspec = nex^2 * n_radial and
  // the quadrature volume approximates the exact spherical-wedge volume
  // (1/6 of the shell).
  MaterialSample s;
  s.rho = 3000.0;
  s.vp = 8000.0;
  s.vs = 4500.0;
  s.q_mu = 300.0;
  HomogeneousModel model(s, kEarthRadiusM);

  GlobeMeshSpec spec;
  spec.nex_xi = 8;
  spec.nchunks = 1;
  spec.r_min = 0.8 * kEarthRadiusM;
  spec.model = &model;
  GllBasis basis(4);
  GlobeSlice slice = build_globe_serial(spec, basis);

  EXPECT_EQ(slice.mesh.nspec % (8 * 8), 0);
  const double exact = 4.0 / 3.0 * kPi *
                       (std::pow(kEarthRadiusM, 3) -
                        std::pow(0.8 * kEarthRadiusM, 3)) /
                       6.0;
  EXPECT_NEAR(mesh_volume(slice.mesh, basis) / exact, 1.0, 2e-3);
  EXPECT_FALSE(slice.absorbing_faces.empty());
}

TEST(Mesher, GlobalShellGlobCountMatchesLatticeFormula) {
  MaterialSample s;
  s.rho = 3000.0;
  s.vp = 8000.0;
  s.vs = 4500.0;
  s.q_mu = 300.0;
  HomogeneousModel model(s, kEarthRadiusM);

  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nchunks = 6;
  spec.r_min = 0.85 * kEarthRadiusM;
  spec.model = &model;
  GllBasis basis(4);
  GlobeSlice globe = build_globe_serial(spec, basis);

  const std::int64_t n = spec.nex_xi * 4;  // surface lattice size
  const int r_lat = globe.stats.radial_elements * 4 + 1;
  EXPECT_EQ(globe.mesh.nglob, cube_surface_point_count(n) * r_lat);
  EXPECT_EQ(globe.mesh.nspec,
            6 * spec.nex_xi * spec.nex_xi * globe.stats.radial_elements);
  // Full shell volume now (all 6 chunks).
  const double exact = 4.0 / 3.0 * kPi *
                       (std::pow(kEarthRadiusM, 3) -
                        std::pow(0.85 * kEarthRadiusM, 3));
  EXPECT_NEAR(mesh_volume(globe.mesh, basis) / exact, 1.0, 2e-3);
  EXPECT_TRUE(globe.absorbing_faces.empty());
}

TEST(Mesher, AllRadiiWithinShellBounds) {
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);
  GlobeSlice globe = build_globe_serial(spec, basis);
  const double r_min = effective_r_min(spec);
  for (std::size_t p = 0; p < globe.mesh.num_local_points(); ++p) {
    const double r = std::sqrt(globe.mesh.xstore[p] * globe.mesh.xstore[p] +
                               globe.mesh.ystore[p] * globe.mesh.ystore[p] +
                               globe.mesh.zstore[p] * globe.mesh.zstore[p]);
    EXPECT_GE(r, r_min * 0.999999);
    EXPECT_LE(r, kEarthRadiusM * 1.000001);
  }
}

TEST(Mesher, PremGlobeHasFluidOuterCoreElements) {
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 8;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);
  GlobeSlice globe = build_globe_serial(spec, basis);
  int fluid = 0, solid = 0;
  for (bool f : globe.materials.element_is_fluid) (f ? fluid : solid)++;
  EXPECT_GT(fluid, 0);
  EXPECT_GT(solid, fluid);  // mantle+crust+inner core dominate
  EXPECT_TRUE(globe.materials.has_fluid());
}

TEST(Mesher, SlicesPartitionTheGlobe) {
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nproc_xi = 2;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);

  GlobeSlice serial = build_globe_serial(spec, basis);
  int total_spec = 0;
  std::int64_t total_points = 0;
  for (int rank = 0; rank < globe_rank_count(spec); ++rank) {
    GlobeSlice s = build_globe_slice(spec, basis, rank);
    total_spec += s.mesh.nspec;
    total_points += s.mesh.nglob;
    EXPECT_FALSE(s.boundary_keys.empty());  // every slice has neighbours
    EXPECT_EQ(s.boundary_keys.size(), s.boundary_points.size());
    // Boundary keys unique within the slice.
    std::set<std::int64_t> uniq(s.boundary_keys.begin(),
                                s.boundary_keys.end());
    EXPECT_EQ(uniq.size(), s.boundary_keys.size());
  }
  EXPECT_EQ(total_spec, serial.mesh.nspec);
  EXPECT_GT(total_points, serial.mesh.nglob);  // interface copies
}

TEST(Mesher, SliceBoundaryKeysCoverSharedPoints) {
  // Sum over slices of (nglob - shared interface points counted once)
  // equals the serial nglob: total_points - serial = duplicated copies.
  // Verify via key multisets: every boundary key appears on >= 2 slices.
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nproc_xi = 2;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);

  std::unordered_map<std::int64_t, int> key_count;
  for (int rank = 0; rank < globe_rank_count(spec); ++rank) {
    GlobeSlice s = build_globe_slice(spec, basis, rank);
    for (auto k : s.boundary_keys) ++key_count[k];
  }
  int lonely = 0;
  for (const auto& [k, c] : key_count)
    if (c < 2) ++lonely;
  EXPECT_EQ(lonely, 0);
}

TEST(Mesher, ResolutionRuleTracksNex) {
  // Doubling NEX_XI should roughly halve the shortest resolved period of
  // the mesh (paper: period = 4352 / NEX).
  PremModel prem;
  GllBasis basis(4);
  auto shortest = [&](int nex) {
    GlobeMeshSpec spec;
    spec.nex_xi = nex;
    spec.nchunks = 6;
    spec.model = &prem;
    GlobeSlice g = build_globe_serial(spec, basis);
    auto q = analyze_mesh_quality(g.mesh, g.materials.vp, g.materials.vs);
    return q.shortest_period;
  };
  const double t4 = shortest(4);
  const double t8 = shortest(8);
  // Radial layer quantization at very coarse NEX perturbs the ratio.
  EXPECT_GT(t4 / t8, 1.5);
  EXPECT_LT(t4 / t8, 3.0);
}

TEST(Mesher, StatsAreFilled) {
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);
  GlobeSlice s = build_globe_slice(spec, basis, 0);
  EXPECT_GT(s.stats.nspec, 0);
  EXPECT_GT(s.stats.nglob, 0);
  EXPECT_GT(s.stats.radial_elements, 0);
  EXPECT_GT(s.stats.mesh_bytes, 100000u);
  EXPECT_GT(s.stats.total_seconds, 0.0);
}

TEST(Mesher, InvalidSpecsRejected) {
  PremModel prem;
  GllBasis basis(4);
  GlobeMeshSpec spec;
  spec.model = &prem;
  spec.nex_xi = 5;
  spec.nproc_xi = 2;  // 5 % 2 != 0
  EXPECT_THROW(build_globe_slice(spec, basis, 0), CheckError);
  spec.nex_xi = 4;
  spec.nchunks = 3;
  EXPECT_THROW(build_globe_slice(spec, basis, 0), CheckError);
}

}  // namespace
}  // namespace sfg
