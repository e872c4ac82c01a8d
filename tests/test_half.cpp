// Unit + property tests for fp16, and the oracle tests that pin the fast
// conversion path (F16C on x86-64) bit-for-bit to the software reference.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/half.hpp"

namespace zi {
namespace {

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half(0.0f).bits(), 0x0000);
  EXPECT_EQ(half(-0.0f).bits(), 0x8000);
  EXPECT_EQ(half(1.0f).bits(), 0x3C00);
  EXPECT_EQ(half(-2.0f).bits(), 0xC000);
  EXPECT_EQ(half(0.5f).bits(), 0x3800);
  EXPECT_EQ(half(65504.0f).bits(), 0x7BFF);  // max finite
  EXPECT_EQ(half(6.103515625e-5f).bits(), 0x0400);  // min normal 2^-14
}

TEST(Half, RoundtripExactValues) {
  // Every value with <= 10 mantissa bits in the half range is exact.
  for (float v : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, 0.25f, -0.125f, 3.5f,
                  1000.0f, -65504.0f}) {
    EXPECT_EQ(half(v).to_float(), v) << v;
  }
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half(65520.0f).isinf());  // rounds up past max finite
  EXPECT_TRUE(half(1e10f).isinf());
  EXPECT_TRUE(half(-1e10f).isinf());
  EXPECT_LT(half(-1e10f).to_float(), 0.0f);
  // 65504 + epsilon below the rounding threshold stays finite.
  EXPECT_TRUE(half(65503.0f).isfinite());
}

TEST(Half, UnderflowAndSubnormals) {
  // Smallest positive subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(half(tiny).bits(), 0x0001);
  EXPECT_EQ(half(tiny).to_float(), tiny);
  // Below half of the smallest subnormal: rounds to zero.
  EXPECT_EQ(half(std::ldexp(1.0f, -26)).bits(), 0x0000);
  // Negative zero sign preserved on underflow.
  EXPECT_EQ(half(-std::ldexp(1.0f, -26)).bits(), 0x8000);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10):
  // ties to even → 1.0 (mantissa even).
  EXPECT_EQ(half(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3C00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even →
  // 1 + 2^-9 (mantissa 0b10).
  EXPECT_EQ(half(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits(), 0x3C02);
  // Slightly above the halfway point rounds up.
  EXPECT_EQ(half(1.0f + std::ldexp(1.0f, -11) * 1.001f).bits(), 0x3C01);
}

TEST(Half, NanPropagation) {
  const half h(std::nanf(""));
  EXPECT_TRUE(h.isnan());
  EXPECT_FALSE(h.isfinite());
  EXPECT_FALSE(h.isinf());
  EXPECT_TRUE(std::isnan(h.to_float()));
}

TEST(Half, Arithmetic) {
  EXPECT_EQ((half(1.5f) + half(2.5f)).to_float(), 4.0f);
  EXPECT_EQ((half(3.0f) * half(2.0f)).to_float(), 6.0f);
  EXPECT_EQ((half(7.0f) - half(3.0f)).to_float(), 4.0f);
  EXPECT_EQ((half(8.0f) / half(2.0f)).to_float(), 4.0f);
  EXPECT_EQ((-half(5.0f)).to_float(), -5.0f);
  EXPECT_LT(half(1.0f), half(2.0f));
  EXPECT_GE(half(2.0f), half(2.0f));
}

// Property: decode(encode(decode(bits))) is the identity on all 65536 bit
// patterns (finite and special values alike, modulo NaN payload squashing).
TEST(HalfProperty, BitExactRoundtripAllPatterns) {
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const half h = half::from_bits(bits);
    const float f = h.to_float();
    const half h2(f);
    if (h.isnan()) {
      EXPECT_TRUE(h2.isnan()) << "bits=" << b;
    } else {
      EXPECT_EQ(h2.bits(), bits) << "bits=" << b;
    }
  }
}

// Property: conversion error is bounded by half an ulp across the normal
// range (relative error <= 2^-11).
TEST(HalfProperty, RelativeErrorBound) {
  for (int i = 0; i < 20000; ++i) {
    const float v = std::ldexp(1.0f + (i % 1000) / 1000.0f, (i % 29) - 14);
    const float back = half(v).to_float();
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * (1.0f / 2048.0f) + 1e-20f)
        << v;
  }
}

std::uint32_t fbits(float f) { return std::bit_cast<std::uint32_t>(f); }
float from_fbits(std::uint32_t u) { return std::bit_cast<float>(u); }

// Every binary16 pattern decodes exactly as the reference does, NaN
// payloads included (hardware would quiet the 1022 signalling NaNs).
TEST(HalfOracle, AllHalvesDecodeLikeReference) {
  for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    ASSERT_EQ(fbits(half_bits_to_float(h)), fbits(half_bits_to_float_ref(h)))
        << "half bits 0x" << std::hex << b;
  }
}

void expect_encodes_like_reference(float f) {
  ASSERT_EQ(float_to_half_bits(f), float_to_half_bits_ref(f))
      << "float bits 0x" << std::hex << fbits(f);
}

// Float → half at the class boundaries, both signs.
TEST(HalfOracle, ClassBoundariesEncodeLikeReference) {
  std::vector<float> cases = {
      0.0f,
      std::ldexp(1.0f, -24),            // smallest subnormal half
      std::ldexp(1023.0f, -24),         // largest subnormal half
      std::ldexp(1.0f, -25),            // tie between 0 and 2^-24: → 0
      std::ldexp(3.0f, -25),            // tie between 2^-24 and 2^-23: → 2
      std::ldexp(1.0f, -14),            // smallest normal half
      65504.0f,                         // largest finite half
      65519.0f,                         // just below the overflow tie
      65520.0f,                         // the tie: rounds to inf
      std::nextafter(65520.0f, 0.0f),   // below the tie by one float ulp
      FLT_MAX,
      FLT_MIN,
      from_fbits(0x00000001u),          // smallest float subnormal
      std::numeric_limits<float>::infinity(),
      from_fbits(0x7FC00000u),          // quiet NaN, no payload
      from_fbits(0x7FC00001u),          // quiet NaN, low payload
      from_fbits(0x7FFFFFFFu),          // quiet NaN, full payload
      from_fbits(0x7F800001u),          // signalling NaN, low payload only
      from_fbits(0x7F802000u),          // signalling, payload at half bit 0
      from_fbits(0x7FA00000u),          // signalling, high payload
      from_fbits(0x7FBFFFFFu),          // signalling, full payload
  };
  // The round-to-nearest-even tie between every pair of adjacent finite
  // halves (so at every exponent, odd and even mantissas alike), and the
  // floats one ulp either side of it. The midpoint is exact in float.
  for (std::uint32_t h = 0; h < 0x7BFF; ++h) {
    const float lo = half_bits_to_float_ref(static_cast<std::uint16_t>(h));
    const float hi = half_bits_to_float_ref(static_cast<std::uint16_t>(h + 1));
    const float mid = lo + (hi - lo) / 2.0f;
    ASSERT_LT(lo, mid);
    ASSERT_LT(mid, hi);
    cases.push_back(mid);
    cases.push_back(std::nextafter(mid, 0.0f));
    cases.push_back(std::nextafter(mid, 1e9f));
  }
  for (const float f : cases) {
    expect_encodes_like_reference(f);
    expect_encodes_like_reference(from_fbits(fbits(f) ^ 0x80000000u));
  }
}

// A seeded sample of 2^24 floats: half uniform bit patterns (every class,
// NaNs included), half with the exponent drawn from the range that rounds
// to a finite half or its neighbours.
TEST(HalfOracle, SeededSampleEncodesLikeReference) {
  std::mt19937 rng(20210416);
  for (std::uint32_t i = 0; i < (1u << 24); ++i) {
    std::uint32_t u = rng();
    if (i & 1u) {
      const std::uint32_t exp = 100u + (u >> 24) % 44u;  // 2^-27 .. 2^16
      u = (u & 0x807FFFFFu) | (exp << 23);
    }
    expect_encodes_like_reference(from_fbits(u));
  }
}

// Inputs for the span tests: every class, NaNs of both kinds and signs.
std::vector<std::uint16_t> half_pool() {
  std::vector<std::uint16_t> pool = {
      0x0000, 0x8000, 0x0001, 0x03FF, 0x0400, 0x3C00, 0x3C01, 0x7BFF,
      0xFBFF, 0x7C00, 0xFC00, 0x7C01, 0x7DFF, 0xFD55, 0x7E00, 0x7FFF,
      0xFE01, 0x83FF, 0x3555, 0xC000};
  std::mt19937 rng(7);
  while (pool.size() < 61) pool.push_back(static_cast<std::uint16_t>(rng()));
  return pool;
}

std::vector<float> float_pool() {
  std::vector<float> pool = {
      0.0f, -0.0f, std::ldexp(1.0f, -24), std::ldexp(1.0f, -25),
      std::ldexp(3.0f, -25), 65504.0f, 65519.0f, -65520.0f,
      1.0f + std::ldexp(1.0f, -11), 1.0f + std::ldexp(3.0f, -11),
      std::numeric_limits<float>::infinity(), FLT_MAX, from_fbits(0x00000001u),
      from_fbits(0x7FC00000u), from_fbits(0xFFC12345u),
      from_fbits(0x7F800001u), from_fbits(0xFFA02000u), -3.14159f};
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-70000.0f, 70000.0f);
  while (pool.size() < 61) pool.push_back(dist(rng));
  return pool;
}

// The span converters equal the scalar ones element by element at every
// length 0–33 (empty, tail only, one or more 8-wide bodies plus every tail
// length) and at every start offset mod 8, and write nothing outside dst.
TEST(HalfOracle, SpanConvertersMatchScalarAtEveryLengthAndOffset) {
  const auto hpool = half_pool();
  const auto fpool = float_pool();
  constexpr std::size_t kGuard = 3;
  const half guard_h = half::from_bits(0x1234);
  const float guard_f = -123.25f;
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 33; ++len) {
      const std::size_t size = off + len + kGuard;
      std::vector<half> h(size);
      std::vector<float> f(size);
      for (std::size_t i = 0; i < size; ++i) {
        h[i] = half::from_bits(hpool[(i * 7 + off + len) % hpool.size()]);
        f[i] = fpool[(i * 5 + off + len) % fpool.size()];
      }

      std::vector<float> to32(size, guard_f);
      cast_f16_to_f32({h.data() + off, len}, {to32.data() + off, len});
      std::vector<half> to16(size, guard_h);
      cast_f32_to_f16({f.data() + off, len}, {to16.data() + off, len});

      for (std::size_t i = 0; i < size; ++i) {
        const bool inside = i >= off && i < off + len;
        const std::uint32_t want32 =
            inside ? fbits(half_bits_to_float(h[i].bits())) : fbits(guard_f);
        const std::uint16_t want16 =
            inside ? float_to_half_bits(f[i]) : guard_h.bits();
        ASSERT_EQ(fbits(to32[i]), want32)
            << "f16→f32 off=" << off << " len=" << len << " i=" << i;
        ASSERT_EQ(to16[i].bits(), want16)
            << "f32→f16 off=" << off << " len=" << len << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace zi
