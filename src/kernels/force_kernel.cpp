#include "kernels/force_kernel.hpp"

#include "common/check.hpp"

namespace sfg {

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::Reference: return "reference";
    case KernelVariant::BlasLike: return "blas";
    case KernelVariant::Sse: return "sse";
    case KernelVariant::Batched: return "batched";
  }
  return "?";
}

KernelWorkspace::KernelWorkspace(int ngll_in)
    : ngll(ngll_in), padded(padded_block_size(ngll_in)) {
  const auto n = static_cast<std::size_t>(padded);
  for (auto* v : {&ux, &uy, &uz, &fx, &fy, &fz, &t1x, &t1y, &t1z, &t2x,
                  &t2y, &t2z, &t3x, &t3y, &t3z, &n1x, &n1y, &n1z, &n2x,
                  &n2y, &n2z, &n3x, &n3y, &n3z, &chi, &fchi, &tc1, &tc2,
                  &tc3, &nc1, &nc2, &nc3})
    v->assign(n, 0.0f);
  for (auto& e : epsdev) e.assign(n, 0.0f);
  gx.assign(n, 0.0f);
  gy.assign(n, 0.0f);
  gz.assign(n, 0.0f);
  // scratch_a/b/c deliberately stay empty: only the BlasLike variant
  // needs the cutplane copies, and it sizes them on first use.
}

BatchWorkspace::BatchWorkspace(int ngll_in, int lanes_in)
    : ngll(ngll_in),
      lanes(lanes_in),
      stride(static_cast<std::size_t>(padded_block_size(ngll_in, lanes_in)) *
             static_cast<std::size_t>(lanes_in)) {
  SFG_CHECK_MSG(lanes == 4 || lanes == 8 || lanes == 16,
                "batch lane count must be 4, 8 or 16, got " << lanes);
  for (auto* v : {&ux, &uy, &uz, &fx, &fy, &fz, &gx, &gy, &gz, &t1x, &t1y,
                  &t1z, &t2x, &t2y, &t2z, &t3x, &t3y, &t3z, &n1x, &n1y,
                  &n1z, &n2x, &n2y, &n2z, &n3x, &n3y, &n3z, &chi, &fchi,
                  &tc1, &tc2, &tc3, &nc1, &nc2, &nc3})
    v->assign(stride, 0.0f);
  for (auto& e : epsdev) e.assign(stride, 0.0f);
}

ForceKernel::ForceKernel(const GllBasis& basis, KernelVariant variant,
                         bool attenuation)
    // The ISA and lane count (0 = the ISA's width) only apply to Batched.
    : ForceKernel(basis, KernelChoice{variant, best_batched_isa(), 0},
                  attenuation) {}

ForceKernel::ForceKernel(const GllBasis& basis, const KernelChoice& choice,
                         bool attenuation)
    : ngll_(basis.num_points()),
      variant_(choice.variant),
      attenuation_(attenuation) {
  SFG_CHECK_MSG(variant_ != KernelVariant::Sse || ngll_ == 5,
                "the SSE kernel is specialized for NGLL = 5 (degree 4), as "
                "in SPECFEM3D_GLOBE");
  if (variant_ == KernelVariant::Batched) {
    isa_ = choice.isa;
    lanes_ = choice.lanes > 0 ? choice.lanes : simd::isa_width(isa_);
    SFG_CHECK_MSG(batched_backend_compiled(isa_),
                  "batched backend '" << simd::isa_name(isa_)
                  << "' is not compiled into this binary");
    SFG_CHECK_MSG(simd::cpu_supports(isa_),
                  "this CPU cannot execute the '" << simd::isa_name(isa_)
                  << "' batched backend");
    SFG_CHECK_MSG(
        isa_ != simd::Isa::Scalar
            ? lanes_ == simd::isa_width(isa_)
            : (lanes_ == 4 || lanes_ == 8 || lanes_ == 16),
        "lane count " << lanes_ << " does not match backend "
                      << simd::isa_name(isa_));
  }
  const auto n2 = static_cast<std::size_t>(ngll_ * ngll_);
  hprime_.resize(n2);
  hprimeT_.resize(n2);
  hprimewgll_.resize(n2);
  wgll_.resize(static_cast<std::size_t>(ngll_));
  for (int i = 0; i < ngll_; ++i) {
    wgll_[static_cast<std::size_t>(i)] = static_cast<float>(basis.weight(i));
    for (int l = 0; l < ngll_; ++l) {
      const auto h = static_cast<float>(basis.hprime(i, l));
      hprime_[static_cast<std::size_t>(i * ngll_ + l)] = h;
      hprimeT_[static_cast<std::size_t>(l * ngll_ + i)] = h;
      // row l, column i: w_l * l_i'(xi_l)
      hprimewgll_[static_cast<std::size_t>(l * ngll_ + i)] =
          static_cast<float>(basis.weight(l) * basis.hprime(l, i));
    }
  }
}

void ForceKernel::compute_elastic(const ElementPointers& ep,
                                  KernelWorkspace& ws) const {
  SFG_ASSERT(ws.ngll == ngll_);
  switch (variant_) {
    case KernelVariant::Reference: elastic_reference(ep, ws); return;
    case KernelVariant::BlasLike: elastic_blas(ep, ws); return;
    case KernelVariant::Sse: elastic_sse(ep, ws); return;
    // Single-element API of the batched variant: the reference path (the
    // batched entry points are compute_*_batched).
    case KernelVariant::Batched: elastic_reference(ep, ws); return;
  }
}

namespace {
inline int idx(int ngll, int i, int j, int k) {
  return (k * ngll + j) * ngll + i;
}
}  // namespace

// ---- shared stage 2 entry point: pointwise stress from the gradient
// temporaries, writing the "new temp" arrays.  ----
void ForceKernel::pointwise_stress_and_second_stage(
    const ElementPointers& ep, KernelWorkspace& ws) const {
  const int n = ngll_;
  const int n3 = n * n * n;

  for (int p = 0; p < n3; ++p) {
    const float xixl = ep.xix[p], xiyl = ep.xiy[p], xizl = ep.xiz[p];
    const float etaxl = ep.etax[p], etayl = ep.etay[p], etazl = ep.etaz[p];
    const float gxl = ep.gammax[p], gyl = ep.gammay[p], gzl = ep.gammaz[p];
    const float jac = ep.jacobian[p];

    const float duxdx = xixl * ws.t1x[p] + etaxl * ws.t2x[p] + gxl * ws.t3x[p];
    const float duxdy = xiyl * ws.t1x[p] + etayl * ws.t2x[p] + gyl * ws.t3x[p];
    const float duxdz = xizl * ws.t1x[p] + etazl * ws.t2x[p] + gzl * ws.t3x[p];
    const float duydx = xixl * ws.t1y[p] + etaxl * ws.t2y[p] + gxl * ws.t3y[p];
    const float duydy = xiyl * ws.t1y[p] + etayl * ws.t2y[p] + gyl * ws.t3y[p];
    const float duydz = xizl * ws.t1y[p] + etazl * ws.t2y[p] + gzl * ws.t3y[p];
    const float duzdx = xixl * ws.t1z[p] + etaxl * ws.t2z[p] + gxl * ws.t3z[p];
    const float duzdy = xiyl * ws.t1z[p] + etayl * ws.t2z[p] + gyl * ws.t3z[p];
    const float duzdz = xizl * ws.t1z[p] + etazl * ws.t2z[p] + gzl * ws.t3z[p];

    const float mul = ep.muv[p];
    const float lambdal = ep.kappav[p] - 2.0f / 3.0f * mul;
    const float trace = duxdx + duydy + duzdz;

    float sxx = lambdal * trace + 2.0f * mul * duxdx;
    float syy = lambdal * trace + 2.0f * mul * duydy;
    float szz = lambdal * trace + 2.0f * mul * duzdz;
    float sxy = mul * (duxdy + duydx);
    float sxz = mul * (duxdz + duzdx);
    float syz = mul * (duydz + duzdy);

    if (attenuation_) {
      // Deviatoric strain for the memory-variable update, and subtraction
      // of the running memory-variable sums from the stress (Komatitsch &
      // Tromp 1999 attenuation formulation with unrelaxed moduli).
      const float tr3 = trace / 3.0f;
      ws.epsdev[0][static_cast<std::size_t>(p)] = duxdx - tr3;
      ws.epsdev[1][static_cast<std::size_t>(p)] = duydy - tr3;
      ws.epsdev[2][static_cast<std::size_t>(p)] = 0.5f * (duxdy + duydx);
      ws.epsdev[3][static_cast<std::size_t>(p)] = 0.5f * (duxdz + duzdx);
      ws.epsdev[4][static_cast<std::size_t>(p)] = 0.5f * (duydz + duzdy);
      if (ep.r_sum[0] != nullptr) {
        sxx -= ep.r_sum[0][p];
        syy -= ep.r_sum[1][p];
        szz -= ep.r_sum[2][p];
        sxy -= ep.r_sum[3][p];
        sxz -= ep.r_sum[4][p];
        syz -= ep.r_sum[5][p];
      }
    }

    if (ep.grav_g != nullptr) {
      // Cowling-approximation gravity body force in the hydrostatic-
      // prestress (Lagrangian) form — the sign convention that yields a
      // neutrally stable term (the naive Eulerian-buoyancy signs are
      // exponentially unstable for PREM stratification):
      //   h = +g r_hat [rho div(s) + rho' s_r]
      //       - rho [ g' r_hat s_r + g grad(s_r) ],
      //   grad(s_r)_i = sum_j r_j d_i s_j + (s_i - s_r r_i) / r.
      const float g = ep.grav_g[p];
      const float gp = ep.grav_dgdr[p];
      const float rhop = ep.grav_drhodr[p];
      const float rx = ep.grav_rx[p], ry = ep.grav_ry[p], rz = ep.grav_rz[p];
      const float invr = ep.grav_invr[p];
      const float rho = ep.rho[p];
      const float sx = ws.ux[static_cast<std::size_t>(p)];
      const float sy = ws.uy[static_cast<std::size_t>(p)];
      const float sz = ws.uz[static_cast<std::size_t>(p)];
      const float sr = sx * rx + sy * ry + sz * rz;
      const float div_s = trace;
      const float grad_sr_x =
          rx * duxdx + ry * duydx + rz * duzdx + (sx - sr * rx) * invr;
      const float grad_sr_y =
          rx * duxdy + ry * duydy + rz * duzdy + (sy - sr * ry) * invr;
      const float grad_sr_z =
          rx * duxdz + ry * duydz + rz * duzdz + (sz - sr * rz) * invr;
      const float radial = g * (rho * div_s + rhop * sr) - rho * gp * sr;
      ws.gx[static_cast<std::size_t>(p)] = radial * rx - rho * g * grad_sr_x;
      ws.gy[static_cast<std::size_t>(p)] = radial * ry - rho * g * grad_sr_y;
      ws.gz[static_cast<std::size_t>(p)] = radial * rz - rho * g * grad_sr_z;
    }

    ws.n1x[static_cast<std::size_t>(p)] =
        jac * (sxx * xixl + sxy * xiyl + sxz * xizl);
    ws.n1y[static_cast<std::size_t>(p)] =
        jac * (sxy * xixl + syy * xiyl + syz * xizl);
    ws.n1z[static_cast<std::size_t>(p)] =
        jac * (sxz * xixl + syz * xiyl + szz * xizl);
    ws.n2x[static_cast<std::size_t>(p)] =
        jac * (sxx * etaxl + sxy * etayl + sxz * etazl);
    ws.n2y[static_cast<std::size_t>(p)] =
        jac * (sxy * etaxl + syy * etayl + syz * etazl);
    ws.n2z[static_cast<std::size_t>(p)] =
        jac * (sxz * etaxl + syz * etayl + szz * etazl);
    ws.n3x[static_cast<std::size_t>(p)] =
        jac * (sxx * gxl + sxy * gyl + sxz * gzl);
    ws.n3y[static_cast<std::size_t>(p)] =
        jac * (sxy * gxl + syy * gyl + syz * gzl);
    ws.n3z[static_cast<std::size_t>(p)] =
        jac * (sxz * gxl + syz * gyl + szz * gzl);
  }
}

void ForceKernel::elastic_reference(const ElementPointers& ep,
                                    KernelWorkspace& ws) const {
  const int n = ngll_;
  const float* h = hprime_.data();
  const float* hw = hprimewgll_.data();

  // Stage 1: gradient temporaries along the three cutplane directions.
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        float sx1 = 0, sy1 = 0, sz1 = 0;
        float sx2 = 0, sy2 = 0, sz2 = 0;
        float sx3 = 0, sy3 = 0, sz3 = 0;
        for (int l = 0; l < n; ++l) {
          const float hil = h[i * n + l];
          const int p1 = idx(n, l, j, k);
          sx1 += ws.ux[static_cast<std::size_t>(p1)] * hil;
          sy1 += ws.uy[static_cast<std::size_t>(p1)] * hil;
          sz1 += ws.uz[static_cast<std::size_t>(p1)] * hil;

          const float hjl = h[j * n + l];
          const int p2 = idx(n, i, l, k);
          sx2 += ws.ux[static_cast<std::size_t>(p2)] * hjl;
          sy2 += ws.uy[static_cast<std::size_t>(p2)] * hjl;
          sz2 += ws.uz[static_cast<std::size_t>(p2)] * hjl;

          const float hkl = h[k * n + l];
          const int p3 = idx(n, i, j, l);
          sx3 += ws.ux[static_cast<std::size_t>(p3)] * hkl;
          sy3 += ws.uy[static_cast<std::size_t>(p3)] * hkl;
          sz3 += ws.uz[static_cast<std::size_t>(p3)] * hkl;
        }
        const auto p = static_cast<std::size_t>(idx(n, i, j, k));
        ws.t1x[p] = sx1;
        ws.t1y[p] = sy1;
        ws.t1z[p] = sz1;
        ws.t2x[p] = sx2;
        ws.t2y[p] = sy2;
        ws.t2z[p] = sz2;
        ws.t3x[p] = sx3;
        ws.t3y[p] = sy3;
        ws.t3z[p] = sz3;
      }
    }
  }

  pointwise_stress_and_second_stage(ep, ws);

  // Stage 3: transpose derivative application with quadrature weights.
  const float* w = wgll_.data();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const float wjk = w[j] * w[k];
      for (int i = 0; i < n; ++i) {
        const float wik = w[i] * w[k];
        const float wij = w[i] * w[j];
        float ax = 0, ay = 0, az = 0;
        float bx = 0, by = 0, bz = 0;
        float cx = 0, cy = 0, cz = 0;
        for (int l = 0; l < n; ++l) {
          const float hwli = hw[l * n + i];
          const int p1 = idx(n, l, j, k);
          ax += ws.n1x[static_cast<std::size_t>(p1)] * hwli;
          ay += ws.n1y[static_cast<std::size_t>(p1)] * hwli;
          az += ws.n1z[static_cast<std::size_t>(p1)] * hwli;

          const float hwlj = hw[l * n + j];
          const int p2 = idx(n, i, l, k);
          bx += ws.n2x[static_cast<std::size_t>(p2)] * hwlj;
          by += ws.n2y[static_cast<std::size_t>(p2)] * hwlj;
          bz += ws.n2z[static_cast<std::size_t>(p2)] * hwlj;

          const float hwlk = hw[l * n + k];
          const int p3 = idx(n, i, j, l);
          cx += ws.n3x[static_cast<std::size_t>(p3)] * hwlk;
          cy += ws.n3y[static_cast<std::size_t>(p3)] * hwlk;
          cz += ws.n3z[static_cast<std::size_t>(p3)] * hwlk;
        }
        const auto p = static_cast<std::size_t>(idx(n, i, j, k));
        ws.fx[p] = -(wjk * ax + wik * bx + wij * cx);
        ws.fy[p] = -(wjk * ay + wik * by + wij * cy);
        ws.fz[p] = -(wjk * az + wik * bz + wij * cz);
      }
    }
  }
}

void ForceKernel::compute_acoustic(const ElementPointers& ep,
                                   KernelWorkspace& ws) const {
  const int n = ngll_;
  const float* h = hprime_.data();
  const float* hw = hprimewgll_.data();

  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        float s1 = 0, s2 = 0, s3 = 0;
        for (int l = 0; l < n; ++l) {
          s1 += ws.chi[static_cast<std::size_t>(idx(n, l, j, k))] * h[i * n + l];
          s2 += ws.chi[static_cast<std::size_t>(idx(n, i, l, k))] * h[j * n + l];
          s3 += ws.chi[static_cast<std::size_t>(idx(n, i, j, l))] * h[k * n + l];
        }
        const auto p = static_cast<std::size_t>(idx(n, i, j, k));
        ws.tc1[p] = s1;
        ws.tc2[p] = s2;
        ws.tc3[p] = s3;
      }
    }
  }

  const int n3 = n * n * n;
  for (int p = 0; p < n3; ++p) {
    const float dchidx =
        ep.xix[p] * ws.tc1[static_cast<std::size_t>(p)] +
        ep.etax[p] * ws.tc2[static_cast<std::size_t>(p)] +
        ep.gammax[p] * ws.tc3[static_cast<std::size_t>(p)];
    const float dchidy =
        ep.xiy[p] * ws.tc1[static_cast<std::size_t>(p)] +
        ep.etay[p] * ws.tc2[static_cast<std::size_t>(p)] +
        ep.gammay[p] * ws.tc3[static_cast<std::size_t>(p)];
    const float dchidz =
        ep.xiz[p] * ws.tc1[static_cast<std::size_t>(p)] +
        ep.etaz[p] * ws.tc2[static_cast<std::size_t>(p)] +
        ep.gammaz[p] * ws.tc3[static_cast<std::size_t>(p)];
    // u_fluid = (1/rho) grad(chi): the weak form carries jac / rho.
    const float fac = ep.jacobian[p] / ep.rho[p];
    ws.nc1[static_cast<std::size_t>(p)] =
        fac * (dchidx * ep.xix[p] + dchidy * ep.xiy[p] + dchidz * ep.xiz[p]);
    ws.nc2[static_cast<std::size_t>(p)] =
        fac *
        (dchidx * ep.etax[p] + dchidy * ep.etay[p] + dchidz * ep.etaz[p]);
    ws.nc3[static_cast<std::size_t>(p)] =
        fac * (dchidx * ep.gammax[p] + dchidy * ep.gammay[p] +
               dchidz * ep.gammaz[p]);
  }

  const float* w = wgll_.data();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const float wjk = w[j] * w[k];
      for (int i = 0; i < n; ++i) {
        float a = 0, b = 0, c = 0;
        for (int l = 0; l < n; ++l) {
          a += ws.nc1[static_cast<std::size_t>(idx(n, l, j, k))] * hw[l * n + i];
          b += ws.nc2[static_cast<std::size_t>(idx(n, i, l, k))] * hw[l * n + j];
          c += ws.nc3[static_cast<std::size_t>(idx(n, i, j, l))] * hw[l * n + k];
        }
        ws.fchi[static_cast<std::size_t>(idx(n, i, j, k))] =
            -(wjk * a + w[i] * w[k] * b + w[i] * w[j] * c);
      }
    }
  }
}

std::uint64_t ForceKernel::elastic_flops_per_element() const {
  const auto n = static_cast<std::uint64_t>(ngll_);
  const std::uint64_t n3 = n * n * n;
  const std::uint64_t n4 = n3 * n;
  // Stage 1: 9 temp arrays, 2 flops per summand: 18 n^4.
  // Pointwise: 9 partials (5 flops) + stress (~25) + 9 newtemps (6 flops).
  // Stage 3: 18 n^4 + weighted combine (~24 per point).
  std::uint64_t pointwise = 45 + 25 + 54 + 24;
  if (attenuation_) pointwise += 20;  // epsdev + memory-sum subtraction
  return 36 * n4 + pointwise * n3;
}

std::uint64_t ForceKernel::acoustic_flops_per_element() const {
  const auto n = static_cast<std::uint64_t>(ngll_);
  const std::uint64_t n3 = n * n * n;
  const std::uint64_t n4 = n3 * n;
  // 3 temps both stages (12 n^4) + pointwise (~15 + 18) + combine (~8).
  return 12 * n4 + 41 * n3;
}

}  // namespace sfg
