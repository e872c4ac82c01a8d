#include "common/half.hpp"

#include <ostream>

#include "common/error.hpp"

namespace zi {

namespace {

inline std::uint32_t float_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

inline float bits_float(std::uint32_t u) noexcept {
  return std::bit_cast<float>(u);
}

}  // namespace

std::uint16_t float_to_half_bits_ref(float f) noexcept {
  const std::uint32_t x = float_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  std::uint32_t mant = x & 0x007FFFFFu;
  const std::int32_t exp = static_cast<std::int32_t>((x >> 23) & 0xFF) - 127;

  if (exp == 128) {
    // Inf / NaN. Preserve NaN-ness with a quiet mantissa bit.
    if (mant != 0) return static_cast<std::uint16_t>(sign | 0x7E00u);
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp > 15) {
    // Overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp >= -14) {
    // Normal half. Round mantissa from 23 to 10 bits, nearest-even.
    const std::uint32_t half_exp = static_cast<std::uint32_t>(exp + 15) << 10;
    std::uint32_t half_mant = mant >> 13;
    const std::uint32_t rem = mant & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (half_mant & 1u))) {
      // Carry may ripple into the exponent; that is correct behaviour
      // (e.g. rounding 2047.5 up to the next binade).
      return static_cast<std::uint16_t>(sign + half_exp + half_mant + 1u);
    }
    return static_cast<std::uint16_t>(sign | (half_exp | half_mant));
  }
  if (exp >= -25) {
    // Subnormal half. Add the implicit leading 1, then shift right.
    mant |= 0x00800000u;
    const int shift = -exp - 14 + 13;  // 14..24
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem_mask = (1u << shift) - 1u;
    const std::uint32_t rem = mant & rem_mask;
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) half_mant += 1u;
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  // Underflow to signed zero.
  return static_cast<std::uint16_t>(sign);
}

float half_bits_to_float_ref(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) return bits_float(sign);  // signed zero
    // Subnormal: normalize.
    int e = -1;
    do {
      ++e;
      mant <<= 1;
    } while ((mant & 0x400u) == 0);
    const std::uint32_t fexp = static_cast<std::uint32_t>(127 - 15 - e) << 23;
    return bits_float(sign | fexp | ((mant & 0x3FFu) << 13));
  }
  if (exp == 31) {
    // Inf / NaN.
    return bits_float(sign | 0x7F800000u | (mant << 13));
  }
  const std::uint32_t fexp = (exp + (127 - 15)) << 23;
  return bits_float(sign | fexp | (mant << 13));
}

void cast_f16_to_f32(std::span<const half> src, std::span<float> dst) {
  ZI_CHECK(src.size() == dst.size());
  const std::size_t n = src.size();
  std::size_t i = 0;
#if ZI_HALF_F16C
  const __m128i abs_mask = _mm_set1_epi16(0x7FFF);
  const __m128i inf = _mm_set1_epi16(0x7C00);
  const __m128i quiet = _mm_set1_epi16(0x7E00);
  const __m256 quiet_bit = _mm256_castsi256_ps(_mm256_set1_epi32(0x00400000));
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src.data() + i));
    // Signalling-NaN lanes (0x7C00 < |h| < 0x7E00): vcvtph2ps sets the
    // quiet bit; clear it again, widening the 16-bit lane mask to 32 bits.
    const __m128i a = _mm_and_si128(h, abs_mask);
    const __m128i snan =
        _mm_and_si128(_mm_cmpgt_epi16(a, inf), _mm_cmplt_epi16(a, quiet));
    const __m256 snan32 = _mm256_castsi256_ps(_mm256_set_m128i(
        _mm_unpackhi_epi16(snan, snan), _mm_unpacklo_epi16(snan, snan)));
    const __m256 f = _mm256_andnot_ps(_mm256_and_ps(snan32, quiet_bit),
                                      _mm256_cvtph_ps(h));
    _mm256_storeu_ps(dst.data() + i, f);
  }
#endif
  for (; i < n; ++i) dst[i] = src[i].to_float();
}

void cast_f32_to_f16(std::span<const float> src, std::span<half> dst) {
  ZI_CHECK(src.size() == dst.size());
  const std::size_t n = src.size();
  std::size_t i = 0;
#if ZI_HALF_F16C
  const __m128i abs_mask = _mm_set1_epi16(0x7FFF);
  const __m128i inf = _mm_set1_epi16(0x7C00);
  const __m128i payload = _mm_set1_epi16(0x01FF);
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src.data() + i),
                                      _MM_FROUND_TO_NEAREST_INT);
    // NaN lanes: vcvtps2ph keeps the float payload below the quiet bit;
    // clear it, leaving sign|0x7E00.
    const __m128i nan = _mm_cmpgt_epi16(_mm_and_si128(h, abs_mask), inf);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst.data() + i),
                     _mm_andnot_si128(_mm_and_si128(nan, payload), h));
  }
#endif
  for (; i < n; ++i) dst[i] = half(src[i]);
}

std::ostream& operator<<(std::ostream& os, half h) { return os << h.to_float(); }

}  // namespace zi
