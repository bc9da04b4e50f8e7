#include "util/simd.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SKP_SIMD_X86 1
#include <immintrin.h>
#else
#define SKP_SIMD_X86 0
#endif

namespace skp::simd {

namespace {

// ---- scalar reference paths ---------------------------------------------

void suffix_sums_scalar(std::span<const double> P,
                        std::span<const ItemId> ids, double* out) {
  const std::size_t m = ids.size();
  out[m] = 0.0;
  for (std::size_t j = m; j-- > 0;) {
    out[j] = out[j + 1] + P[static_cast<std::size_t>(ids[j])];
  }
}

double masked_time_sum_scalar(std::span<const double> P,
                              std::span<const double> r,
                              std::span<const char> present) {
  double sum = 0.0;
  for (std::size_t i = 0; i < P.size(); ++i) {
    if (present[i] == 0) sum += P[i] * r[i];
  }
  return sum;
}

#if SKP_SIMD_X86

// ---- SSE2 (x86-64 baseline) ---------------------------------------------
// No hardware gather: assemble pairs with set_pd, vectorize the multiply.
// Each product is a single IEEE mulpd lane — bit-identical to scalar.

void gather_values_sse2(std::span<const double> values,
                        std::span<const ItemId> ids, double* out) {
  std::size_t k = 0;
  const std::size_t m = ids.size();
  for (; k + 2 <= m; k += 2) {
    const __m128d v = _mm_set_pd(
        values[static_cast<std::size_t>(ids[k + 1])],
        values[static_cast<std::size_t>(ids[k])]);
    _mm_storeu_pd(out + k, v);
  }
  for (; k < m; ++k) out[k] = values[static_cast<std::size_t>(ids[k])];
}

void suffix_sums_sse2(std::span<const double> P, std::span<const ItemId> ids,
                      double* out) {
  // Vectorized gather pass writes P[ids[j]] into out[j]; the dependent
  // right-to-left accumulation stays scalar (bit-exact order).
  gather_values_sse2(P, ids, out);
  const std::size_t m = ids.size();
  out[m] = 0.0;
  for (std::size_t j = m; j-- > 0;) out[j] += out[j + 1];
}

double masked_time_sum_sse2(std::span<const double> P,
                            std::span<const double> r,
                            std::span<const char> present) {
  // Products are computed two lanes at a time into a chunk buffer; the
  // conditional accumulation runs over the buffer in ascending-i scalar
  // order, so the sum is bit-identical to the reference skip loop.
  constexpr std::size_t kChunk = 64;
  double buf[kChunk];
  double sum = 0.0;
  const std::size_t n = P.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    std::size_t k = 0;
    for (; k + 2 <= len; k += 2) {
      const __m128d p = _mm_loadu_pd(P.data() + base + k);
      const __m128d rr = _mm_loadu_pd(r.data() + base + k);
      _mm_storeu_pd(buf + k, _mm_mul_pd(p, rr));
    }
    for (; k < len; ++k) buf[k] = P[base + k] * r[base + k];
    for (std::size_t j = 0; j < len; ++j) {
      if (present[base + j] == 0) sum += buf[j];
    }
  }
  return sum;
}

// ---- AVX2 ----------------------------------------------------------------
// Hardware gathers (vgatherdpd) feed 4-wide multiplies; accumulations stay
// scalar-ordered as above.

// gcc lowers the unmasked _mm256_i32gather_pd through the masked builtin
// with an intentionally-undefined source vector, which -Wmaybe-uninitialized
// flags inside avx2intrin.h itself (false positive: the all-ones mask
// overwrites every lane). Scoped to the gather users below.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx2"))) void gather_values_avx2(
    std::span<const double> values, std::span<const ItemId> ids,
    double* out) {
  std::size_t k = 0;
  const std::size_t m = ids.size();
  for (; k + 4 <= m; k += 4) {
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(ids.data() + k));
    _mm256_storeu_pd(out + k, _mm256_i32gather_pd(values.data(), idx, 8));
  }
  for (; k < m; ++k) out[k] = values[static_cast<std::size_t>(ids[k])];
}

__attribute__((target("avx2"))) void suffix_sums_avx2(
    std::span<const double> P, std::span<const ItemId> ids, double* out) {
  gather_values_avx2(P, ids, out);
  const std::size_t m = ids.size();
  out[m] = 0.0;
  for (std::size_t j = m; j-- > 0;) out[j] += out[j + 1];
}

__attribute__((target("avx2"))) double masked_time_sum_avx2(
    std::span<const double> P, std::span<const double> r,
    std::span<const char> present) {
  constexpr std::size_t kChunk = 64;
  double buf[kChunk];
  double sum = 0.0;
  const std::size_t n = P.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    std::size_t k = 0;
    for (; k + 4 <= len; k += 4) {
      const __m256d p = _mm256_loadu_pd(P.data() + base + k);
      const __m256d rr = _mm256_loadu_pd(r.data() + base + k);
      _mm256_storeu_pd(buf + k, _mm256_mul_pd(p, rr));
    }
    for (; k < len; ++k) buf[k] = P[base + k] * r[base + k];
    for (std::size_t j = 0; j < len; ++j) {
      if (present[base + j] == 0) sum += buf[j];
    }
  }
  return sum;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SKP_SIMD_X86

Isa detect_isa() noexcept {
#if SKP_SIMD_X86
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return Isa::Avx2;
#endif
  return Isa::Sse2;  // x86-64 baseline
#else
  return Isa::Scalar;
#endif
}

Isa resolve_isa() noexcept {
  const Isa widest = detect_isa();
  const char* env = std::getenv("SKP_SIMD");
  if (env == nullptr || *env == '\0') return widest;
  if (std::strcmp(env, "scalar") == 0) return Isa::Scalar;
  if (std::strcmp(env, "sse2") == 0 && widest >= Isa::Sse2) return Isa::Sse2;
  if (std::strcmp(env, "avx2") == 0 && widest >= Isa::Avx2) return Isa::Avx2;
  return widest;  // unknown or unsupported request: widest available
}

}  // namespace

const char* to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Sse2: return "sse2";
    case Isa::Avx2: return "avx2";
  }
  return "?";
}

Isa detected_isa() noexcept {
  static const Isa isa = detect_isa();
  return isa;
}

Isa active_isa() noexcept {
  static const Isa isa = resolve_isa();
  return isa;
}

void suffix_sums_isa(Isa isa, std::span<const double> P,
                     std::span<const ItemId> ids, double* out) {
#if SKP_SIMD_X86
  if (isa == Isa::Avx2) return suffix_sums_avx2(P, ids, out);
  if (isa == Isa::Sse2) return suffix_sums_sse2(P, ids, out);
#else
  (void)isa;
#endif
  suffix_sums_scalar(P, ids, out);
}

double masked_time_sum_isa(Isa isa, std::span<const double> P,
                           std::span<const double> r,
                           std::span<const char> present) {
#if SKP_SIMD_X86
  if (isa == Isa::Avx2) return masked_time_sum_avx2(P, r, present);
  if (isa == Isa::Sse2) return masked_time_sum_sse2(P, r, present);
#else
  (void)isa;
#endif
  return masked_time_sum_scalar(P, r, present);
}

void suffix_sums(std::span<const double> P, std::span<const ItemId> ids,
                 double* out) {
  suffix_sums_isa(active_isa(), P, ids, out);
}

double masked_time_sum(std::span<const double> P, std::span<const double> r,
                       std::span<const char> present) {
  return masked_time_sum_isa(active_isa(), P, r, present);
}

}  // namespace skp::simd
