// IEEE 754 binary16 ("half") type and its conversions to and from float.
//
// The paper trains in mixed precision: parameters and gradients in fp16,
// optimizer state in fp32 (Sec. 2, "Adam Optimizer and Mixed Precision
// Training"). `half` is the binary16 storage format CUDA kernels use;
// arithmetic converts through float, matching how tensor cores accumulate
// in fp32.
//
// There is one conversion path, fixed at build time by platform. On x86-64
// the scalar converters are inline F16C instructions (vcvtps2ph with
// round-to-nearest-even, vcvtph2ps) and the span converters run 8 lanes per
// instruction; the build requires F16C (src/common/CMakeLists.txt adds
// -mf16c). Elsewhere both call the software routines. The two agree on
// every non-NaN input, and NaNs are fixed up to the software bits, so a
// result never depends on the platform: float→half gives sign|0x7E00, and
// half→float gives sign|0x7F800000|mant<<13 (a signalling NaN stays
// signalling). The software routines (`*_ref`) are the test oracle.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <span>

#if defined(__x86_64__)
#if !defined(__F16C__)
#error "x86-64 builds need F16C: compile with -mf16c (zi_common's flags)"
#endif
#include <immintrin.h>
#define ZI_HALF_F16C 1
#else
#define ZI_HALF_F16C 0
#endif

namespace zi {

/// Software float → binary16, round-to-nearest-even. NaN → sign|0x7E00.
std::uint16_t float_to_half_bits_ref(float f) noexcept;

/// Software binary16 → float (exact). NaN mantissas shift up unchanged.
float half_bits_to_float_ref(std::uint16_t h) noexcept;

/// Convert a float to IEEE binary16 bits with round-to-nearest-even.
/// Bit-identical to float_to_half_bits_ref.
inline std::uint16_t float_to_half_bits(float f) noexcept {
#if ZI_HALF_F16C
  const auto h =
      static_cast<std::uint16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
  // vcvtps2ph carries the float NaN's payload over; drop it.
  if ((h & 0x7FFFu) > 0x7C00u) {
    return static_cast<std::uint16_t>((h & 0x8000u) | 0x7E00u);
  }
  return h;
#else
  return float_to_half_bits_ref(f);
#endif
}

/// Convert IEEE binary16 bits to float (exact). Bit-identical to
/// half_bits_to_float_ref.
inline float half_bits_to_float(std::uint16_t h) noexcept {
#if ZI_HALF_F16C
  // vcvtph2ps sets the quiet bit of a signalling NaN; keep the mantissa.
  if ((h & 0x7FFFu) > 0x7C00u) {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t mant = static_cast<std::uint32_t>(h & 0x3FFu) << 13;
    return std::bit_cast<float>(sign | 0x7F800000u | mant);
  }
  return _cvtsh_ss(h);
#else
  return half_bits_to_float_ref(h);
#endif
}

/// IEEE 754 binary16 value type. 2 bytes, trivially copyable; safe to
/// memcpy into I/O buffers and across the collectives layer.
class half {
 public:
  half() noexcept = default;
  explicit half(float f) noexcept : bits_(float_to_half_bits(f)) {}

  /// Reinterpret raw binary16 bits as a half.
  static half from_bits(std::uint16_t bits) noexcept {
    half h;
    h.bits_ = bits;
    return h;
  }

  std::uint16_t bits() const noexcept { return bits_; }
  float to_float() const noexcept { return half_bits_to_float(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  half& operator+=(half o) noexcept { return *this = half(to_float() + o.to_float()); }
  half& operator-=(half o) noexcept { return *this = half(to_float() - o.to_float()); }
  half& operator*=(half o) noexcept { return *this = half(to_float() * o.to_float()); }
  half& operator/=(half o) noexcept { return *this = half(to_float() / o.to_float()); }

  friend half operator+(half a, half b) noexcept { return half(a.to_float() + b.to_float()); }
  friend half operator-(half a, half b) noexcept { return half(a.to_float() - b.to_float()); }
  friend half operator*(half a, half b) noexcept { return half(a.to_float() * b.to_float()); }
  friend half operator/(half a, half b) noexcept { return half(a.to_float() / b.to_float()); }
  friend half operator-(half a) noexcept { return half(-a.to_float()); }

  friend bool operator==(half a, half b) noexcept { return a.to_float() == b.to_float(); }
  friend bool operator!=(half a, half b) noexcept { return !(a == b); }
  friend bool operator<(half a, half b) noexcept { return a.to_float() < b.to_float(); }
  friend bool operator>(half a, half b) noexcept { return a.to_float() > b.to_float(); }
  friend bool operator<=(half a, half b) noexcept { return a.to_float() <= b.to_float(); }
  friend bool operator>=(half a, half b) noexcept { return a.to_float() >= b.to_float(); }

  bool isfinite() const noexcept { return (bits_ & 0x7C00u) != 0x7C00u; }
  bool isnan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x3FFu) != 0;
  }
  bool isinf() const noexcept { return (bits_ & 0x7FFFu) == 0x7C00u; }

  /// Largest finite binary16 value (65504).
  static half max() noexcept { return from_bits(0x7BFF); }
  /// Smallest positive normal binary16 value (2^-14).
  static half min_normal() noexcept { return from_bits(0x0400); }
  static half infinity() noexcept { return from_bits(0x7C00); }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be exactly 2 bytes");

/// Bulk fp16 → fp32: dst[i] = src[i].to_float(). Sizes must match.
void cast_f16_to_f32(std::span<const half> src, std::span<float> dst);
/// Bulk fp32 → fp16: dst[i] = half(src[i]). Sizes must match.
void cast_f32_to_f16(std::span<const float> src, std::span<half> dst);

std::ostream& operator<<(std::ostream& os, half h);

}  // namespace zi
