// Unit + property tests for software fp16.
#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace zi
