#pragma once

/// \file force_kernel.hpp
/// The internal-force compute kernels of the solver — the code the paper
/// spends §4.3 optimizing. More than 70% of runtime is spent in two
/// routines ("the large solid mantle and crust, and the smaller fluid
/// outer core") that perform small matrix-matrix products (typically
/// 5 x 5) along cutplanes of 3-D arrays.
///
/// Four variants compute identical math and must agree to float tolerance
/// (enforced by tests/test_kernels.cpp):
///  * Reference — clean nested loops (the "regular Fortran loops" the
///    paper compares against),
///  * BlasLike — a generic runtime-dimension SGEMM with cutplane copies,
///    reproducing why "using BLAS calls actually significantly slows down
///    the code" for 5 x 5 matrices,
///  * Sse — hand-written SSE intrinsics processing 4 of each 5 values in
///    vector registers and the 5th serially, with 5x5x5=125-float blocks
///    padded to 128 (the paper's 2.4% memory waste),
///  * Batched — B elements packed into [point][lane] SoA blocks and run
///    through the whole kernel one vector op per point (ISSUE 6), with a
///    runtime-dispatched backend (scalar/SSE/AVX2/AVX-512/NEON; see
///    common/simd.hpp and docs/kernels.md). Lanes are arithmetically
///    independent, so an element's forces are bit-identical regardless of
///    its batch companions or lane position — the lane-order bit-identity
///    contract the solver's batched schedules rely on.
///
/// The solver always runs Batched on the widest usable ISA. Reference,
/// BlasLike and Sse are the paper's §4.3 exhibits, timed by
/// bench_sse_kernels and checked element by element in test_kernels.

#include <cstdint>

#include "common/aligned.hpp"
#include "common/simd.hpp"
#include "quadrature/gll.hpp"

namespace sfg {

enum class KernelVariant {
  Reference,
  BlasLike,
  Sse,
  Batched,
};

const char* kernel_variant_name(KernelVariant v);

/// Padded length of an ngll^3 block, rounded up so `width`-wide vector
/// loads starting at any point index stay in bounds (125 -> 128 for
/// ngll = 5 at the classic 4-wide padding — the paper's 2.4% memory
/// waste). Generalized beyond the hard-coded 4 for the batched SoA
/// blocks, whose lane count follows the dispatched ISA width.
constexpr int padded_block_size(int ngll, int width = 4) {
  const int n3 = ngll * ngll * ngll;
  // ceil((n3 + width - 1) / width) * width
  return (n3 + 2 * (width - 1)) / width * width;
}
static_assert(padded_block_size(5) == 128, "the paper's 125->128 padding");
static_assert(padded_block_size(5, 8) == 136, "8-wide padding of 125");
static_assert(padded_block_size(5, 16) == 144, "16-wide padding of 125");

/// The widest batched-kernel backend that is both compiled into this
/// binary and executable on this CPU (runtime cpuid). Scalar when nothing
/// wider is usable.
simd::Isa best_batched_isa();

/// True when the batched-kernel translation unit compiled a backend for
/// `isa` (the compile-time half of dispatch; cpu_supports is the runtime
/// half).
bool batched_backend_compiled(simd::Isa isa);

/// A concrete kernel selection: the variant plus, for Batched, the ISA
/// backend and SoA lane count. Tests and benches pin one backend with it.
struct KernelChoice {
  KernelVariant variant = KernelVariant::Reference;
  simd::Isa isa = simd::Isa::Scalar;  ///< Batched only
  int lanes = 1;  ///< Batched only: 4, 8 or 16; <= 0 = the ISA's width
};

/// Per-element input pointers: inverse-mapping tables, Jacobian and
/// isotropic moduli, each an array of ngll^3 values for one element.
struct ElementPointers {
  const float* xix;
  const float* xiy;
  const float* xiz;
  const float* etax;
  const float* etay;
  const float* etaz;
  const float* gammax;
  const float* gammay;
  const float* gammaz;
  const float* jacobian;
  const float* kappav;  ///< unrelaxed bulk modulus (elastic) or kappa (fluid)
  const float* muv;     ///< unrelaxed shear modulus (elastic only)
  const float* rho;     ///< density (used by the acoustic kernel)

  /// Attenuation (optional): per-point running memory-variable sums for
  /// the 6 stress components, pre-summed over the SLSs
  /// (R_xx, R_yy, R_zz, R_xy, R_xz, R_yz). Null when attenuation is off.
  const float* r_sum[6] = {nullptr, nullptr, nullptr,
                           nullptr, nullptr, nullptr};

  /// Gravity in the Cowling approximation (optional): per-point g(r),
  /// dg/dr, drho/dr, the unit radial direction and 1/r. When grav_g is
  /// non-null the kernel also evaluates the body-force density
  ///   h = div(rho s) g_vec - rho grad(s . g_vec),   g_vec = -g r_hat,
  /// into the workspace gravity arrays (gx, gy, gz); the region code adds
  /// w3 * jacobian * h to the nodal forces (collocated body force).
  const float* grav_g = nullptr;
  const float* grav_dgdr = nullptr;
  const float* grav_drhodr = nullptr;
  const float* grav_rx = nullptr;
  const float* grav_ry = nullptr;
  const float* grav_rz = nullptr;
  const float* grav_invr = nullptr;
};

/// Scratch arrays for one element, 64-byte aligned and padded. Gathered
/// displacement goes in ux/uy/uz; the kernel writes the force contribution
/// (already carrying the weak-form minus sign) into fx/fy/fz; with
/// attenuation enabled it also writes the deviatoric strain (5 components:
/// dev_xx, dev_yy, dev_xy, dev_xz, dev_yz) for the memory-variable update.
struct KernelWorkspace {
  explicit KernelWorkspace(int ngll);

  int ngll;
  int padded;

  aligned_vector<float> ux, uy, uz;
  aligned_vector<float> fx, fy, fz;
  aligned_vector<float> epsdev[5];
  aligned_vector<float> gx, gy, gz;  ///< gravity body-force density

  // internal temporaries (both derivative stages), kept allocated
  aligned_vector<float> t1x, t1y, t1z, t2x, t2y, t2z, t3x, t3y, t3z;
  aligned_vector<float> n1x, n1y, n1z, n2x, n2y, n2z, n3x, n3y, n3z;

  // acoustic temporaries
  aligned_vector<float> chi, fchi, tc1, tc2, tc3, nc1, nc2, nc3;

  // BlasLike cutplane copy scratch. Allocated LAZILY by the BlasLike
  // variant on its first call (sized once, then reused) so the other
  // variants never pay for it — workspaces are per-thread and plentiful.
  aligned_vector<float> scratch_a, scratch_b, scratch_c;
};

/// SoA inputs for one batch of the Batched variant: every field is an
/// array of ngll^3 * lanes floats in [point][lane] layout — value of
/// point p, lane (element) l at index p * lanes + l. Built once per batch
/// by the solver (the tables never change during time marching); only the
/// displacement gather and the attenuation sums are per-step.
struct BatchPointers {
  const float* xix;
  const float* xiy;
  const float* xiz;
  const float* etax;
  const float* etay;
  const float* etaz;
  const float* gammax;
  const float* gammay;
  const float* gammaz;
  const float* jacobian;
  const float* kappav;
  const float* muv;
  const float* rho;

  /// Attenuation memory-variable sums (see ElementPointers::r_sum), in
  /// the same [point][lane] layout. Null when attenuation is off.
  const float* r_sum[6] = {nullptr, nullptr, nullptr,
                           nullptr, nullptr, nullptr};

  /// Gravity tables (see ElementPointers), [point][lane]. grav_g == null
  /// disables the gravity body-force evaluation.
  const float* grav_g = nullptr;
  const float* grav_dgdr = nullptr;
  const float* grav_drhodr = nullptr;
  const float* grav_rx = nullptr;
  const float* grav_ry = nullptr;
  const float* grav_rz = nullptr;
  const float* grav_invr = nullptr;
};

/// Scratch for one batch of B = lanes elements, mirroring KernelWorkspace
/// in [point][lane] SoA layout. Arrays are sized
/// padded_block_size(ngll, lanes) * lanes once at construction (the
/// generalized padding: any lanes-wide load starting at a valid flat
/// index stays in bounds) — sized here, never per call.
struct BatchWorkspace {
  BatchWorkspace(int ngll, int lanes);

  int ngll;
  int lanes;
  std::size_t stride;  ///< floats per field = padded * lanes

  aligned_vector<float> ux, uy, uz;
  aligned_vector<float> fx, fy, fz;
  aligned_vector<float> epsdev[5];
  aligned_vector<float> gx, gy, gz;

  aligned_vector<float> t1x, t1y, t1z, t2x, t2y, t2z, t3x, t3y, t3z;
  aligned_vector<float> n1x, n1y, n1z, n2x, n2y, n2z, n3x, n3y, n3z;

  aligned_vector<float> chi, fchi, tc1, tc2, tc3, nc1, nc2, nc3;
};

/// Precomputed float copies of the basis matrices in the layouts the
/// kernels consume.
class ForceKernel {
 public:
  /// Batched runs on best_batched_isa() at its native lane count.
  ForceKernel(const GllBasis& basis, KernelVariant variant,
              bool attenuation = false);
  /// Explicit backend selection (tests, A/B benches).
  ForceKernel(const GllBasis& basis, const KernelChoice& choice,
              bool attenuation = false);

  KernelVariant variant() const { return variant_; }
  /// Batched backend ISA (Scalar for non-batched variants).
  simd::Isa isa() const { return isa_; }
  /// SoA batch width B (1 for non-batched variants).
  int lanes() const { return lanes_; }
  bool attenuation() const { return attenuation_; }
  int ngll() const { return ngll_; }

  /// Elastic (solid-region) force: consumes ws.ux/uy/uz, fills
  /// ws.fx/fy/fz (and ws.epsdev when attenuation is on). The Batched
  /// variant falls back to the reference path here — this is the
  /// single-element API (used e.g. by energy accounting).
  void compute_elastic(const ElementPointers& ep, KernelWorkspace& ws) const;

  /// Acoustic (fluid-region) force on the potential: consumes ws.chi,
  /// fills ws.fchi. Always the reference path except the Sse variant.
  void compute_acoustic(const ElementPointers& ep, KernelWorkspace& ws) const;

  /// Batched elastic force across ws.lanes SoA lanes: consumes
  /// ws.ux/uy/uz, fills ws.fx/fy/fz (+ ws.epsdev with attenuation,
  /// ws.gx/gy/gz with gravity inputs), all [point][lane]. Requires
  /// variant() == Batched and ws.lanes == lanes().
  void compute_elastic_batched(const BatchPointers& bp,
                               BatchWorkspace& ws) const;
  /// Batched acoustic force: consumes ws.chi, fills ws.fchi.
  void compute_acoustic_batched(const BatchPointers& bp,
                                BatchWorkspace& ws) const;

  /// Analytic floating-point operation count of compute_elastic for one
  /// element (used by the sustained-FLOPS model, paper §5).
  std::uint64_t elastic_flops_per_element() const;
  /// Same for compute_acoustic.
  std::uint64_t acoustic_flops_per_element() const;

  // Basis tables (row-major). hprime[i*ngll+l] = l_l'(xi_i).
  // hprimewgll[l*ngll+i] = w_l * l_i'(xi_l) (summation index l is the row).
  const float* hprime() const { return hprime_.data(); }
  const float* hprimewgll() const { return hprimewgll_.data(); }
  const float* wgll() const { return wgll_.data(); }

 private:
  void elastic_reference(const ElementPointers& ep, KernelWorkspace& ws) const;
  void elastic_blas(const ElementPointers& ep, KernelWorkspace& ws) const;
  void elastic_sse(const ElementPointers& ep, KernelWorkspace& ws) const;
  void pointwise_stress_and_second_stage(const ElementPointers& ep,
                                         KernelWorkspace& ws) const;

  int ngll_;
  KernelVariant variant_;
  simd::Isa isa_ = simd::Isa::Scalar;
  int lanes_ = 1;
  bool attenuation_;
  aligned_vector<float> hprime_;      // [i][l]
  aligned_vector<float> hprimeT_;     // [l][i] (transposed, for SSE)
  aligned_vector<float> hprimewgll_;  // [l][i]
  aligned_vector<float> wgll_;        // 1-D weights
};

}  // namespace sfg
