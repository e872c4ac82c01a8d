#include "common/half.hpp"

#include <bit>
#include <cstring>
#include <ostream>

namespace zi {

namespace {

inline std::uint32_t float_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

inline float bits_float(std::uint32_t u) noexcept {
  return std::bit_cast<float>(u);
}

}  // namespace

std::uint16_t float_to_half_bits(float f) noexcept {
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

float half_bits_to_float(std::uint16_t h) noexcept {
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

bool half::isnan() const noexcept {
  return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x3FFu) != 0;
}

bool half::isinf() const noexcept {
  return (bits_ & 0x7FFFu) == 0x7C00u;
}

bool half::isfinite() const noexcept { return (bits_ & 0x7C00u) != 0x7C00u; }

std::ostream& operator<<(std::ostream& os, half h) { return os << h.to_float(); }

}  // namespace zi
