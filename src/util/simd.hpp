// Runtime-dispatched SIMD kernels for the solver/engine inner loops.
//
// Two kernels cover the contiguous-span hot loops the allocation-free
// refactor (PR 2) left in exactly the layout vectorization wants:
//
//   * suffix_sums       — the Figure-3 tail sums over a canonical row
//                         (CanonicalOrderTable rebuilds, PaperTail solves);
//   * masked_time_sum   — the presence-bitmap access-time accumulation
//                         sum_{i not in C} P_i r_i (Section-5 expected
//                         access time against a cache bitmap).
//
// Bit-exactness contract: the scalar path is the reference, and every
// vector path must produce bit-identical doubles. The kernels therefore
// vectorize only the *elementwise* work (gathers and products, each of
// which is an exact IEEE operation regardless of lane) and keep every
// accumulation in the scalar's fixed left-to-right (or right-to-left, for
// suffix sums) order. tests/test_simd.cpp pins scalar-vs-SIMD equality on
// randomized instances including denormal and zero-probability rows.
//
// Dispatch: the widest ISA supported by the CPU is selected once per
// process (SSE2 is the x86-64 baseline; AVX2 adds hardware gathers). The
// SKP_SIMD environment variable overrides the choice for debugging and
// A/B timing: SKP_SIMD=scalar|sse2|avx2 (an unavailable request falls
// back to the widest supported path). Non-x86 builds compile the scalar
// path only.
#pragma once

#include <cstddef>
#include <span>

#include "core/item.hpp"

namespace skp::simd {

enum class Isa { Scalar, Sse2, Avx2 };

const char* to_string(Isa isa) noexcept;

// The ISA every kernel below dispatches to. Resolved once on first use
// from CPU detection + the SKP_SIMD override; stable for process life.
Isa active_isa() noexcept;

// Widest ISA this CPU supports (ignores the SKP_SIMD override).
Isa detected_isa() noexcept;

// Figure-3 tail sums: out[m] = 0, out[j] = out[j+1] + P[ids[j]] for
// j = m-1 .. 0 (m = ids.size()); `out` must hold m + 1 doubles. The
// gather is vectorized; the running sum is accumulated right-to-left in
// scalar order, so the result is bit-identical to the naive loop.
void suffix_sums(std::span<const double> P, std::span<const ItemId> ids,
                 double* out);

// sum of P[i] * r[i] over every catalog item with present[i] == 0,
// accumulated in ascending-i scalar order (bit-identical to the naive
// skip loop). P, r, present must have equal sizes.
double masked_time_sum(std::span<const double> P, std::span<const double> r,
                       std::span<const char> present);

// Per-ISA entry points (same contracts), for the bit-identity tests and
// the -march CI matrix. Calling an ISA the CPU lacks is undefined; guard
// with detected_isa().
void suffix_sums_isa(Isa isa, std::span<const double> P,
                     std::span<const ItemId> ids, double* out);
double masked_time_sum_isa(Isa isa, std::span<const double> P,
                           std::span<const double> r,
                           std::span<const char> present);

}  // namespace skp::simd
