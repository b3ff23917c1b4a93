#include "squid/util/u128.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace squid {
namespace {

TEST(U128, MakeAndSplitRoundTrip) {
  const u128 v = make_u128(0x0123456789abcdefull, 0xfedcba9876543210ull);
  EXPECT_EQ(hi64(v), 0x0123456789abcdefull);
  EXPECT_EQ(lo64(v), 0xfedcba9876543210ull);
}

TEST(U128, LowMaskBoundaries) {
  EXPECT_EQ(low_mask(0), static_cast<u128>(0));
  EXPECT_EQ(low_mask(1), static_cast<u128>(1));
  EXPECT_EQ(low_mask(64), make_u128(0, ~std::uint64_t{0}));
  EXPECT_EQ(low_mask(127), u128_max >> 1);
  EXPECT_EQ(low_mask(128), u128_max);
  EXPECT_EQ(low_mask(200), u128_max);
}

TEST(U128, BitWidth) {
  EXPECT_EQ(bit_width(static_cast<u128>(0)), 0u);
  EXPECT_EQ(bit_width(static_cast<u128>(1)), 1u);
  EXPECT_EQ(bit_width(static_cast<u128>(0xff)), 8u);
  EXPECT_EQ(bit_width(make_u128(1, 0)), 65u);
  EXPECT_EQ(bit_width(u128_max), 128u);
}

TEST(U128, ToStringSmallValues) {
  EXPECT_EQ(to_string(static_cast<u128>(0)), "0");
  EXPECT_EQ(to_string(static_cast<u128>(7)), "7");
  EXPECT_EQ(to_string(static_cast<u128>(1234567890ull)), "1234567890");
}

TEST(U128, ToStringMaxValue) {
  EXPECT_EQ(to_string(u128_max), "340282366920938463463374607431768211455");
}

TEST(U128, ParseRoundTrip) {
  for (const u128 v :
       {static_cast<u128>(0), static_cast<u128>(42), make_u128(3, 17),
        u128_max - 1, u128_max}) {
    EXPECT_EQ(parse_u128(to_string(v)), v);
  }
}

TEST(U128, ParseRejectsGarbage) {
  EXPECT_THROW(parse_u128(""), std::invalid_argument);
  EXPECT_THROW(parse_u128("12a"), std::invalid_argument);
  EXPECT_THROW(parse_u128("-1"), std::invalid_argument);
}

TEST(U128, ParseRejectsOverflow) {
  EXPECT_THROW(parse_u128("340282366920938463463374607431768211456"),
               std::out_of_range);
}

TEST(U128, BinaryStringShowsPrefixes) {
  EXPECT_EQ(to_binary_string(static_cast<u128>(0b1011), 6), "001011");
  EXPECT_EQ(to_binary_string(static_cast<u128>(0), 3), "000");
  EXPECT_THROW(to_binary_string(static_cast<u128>(1), 129),
               std::invalid_argument);
}

TEST(U128, HexString) {
  EXPECT_EQ(to_hex_string(static_cast<u128>(0)), "0x0");
  EXPECT_EQ(to_hex_string(static_cast<u128>(0xdeadbeef)), "0xdeadbeef");
  EXPECT_EQ(to_hex_string(u128_max), "0xffffffffffffffffffffffffffffffff");
}

/// Digit-at-a-time rendering by repeated division: the slow, obviously
/// correct definition the fast paths are checked against.
std::string naive_decimal(u128 v) {
  std::string out;
  do {
    out.push_back(static_cast<char>('0' + static_cast<unsigned>(v % 10)));
    v /= 10;
  } while (v != 0);
  std::reverse(out.begin(), out.end());
  return out;
}

/// Every value at which a digit count or a 64-bit split could go wrong:
/// 0, each power of two and of ten, and their neighbours.
std::vector<u128> decimal_edge_values() {
  std::vector<u128> values = {0, u128_max, u128_max - 1};
  for (unsigned b = 0; b < 128; ++b) {
    const u128 p = static_cast<u128>(1) << b;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  u128 p = 1;
  for (unsigned k = 0; k <= 38; ++k, p *= 10) {
    values.insert(values.end(), {p - 1, p, p + 1, 2 * p, 9 * p});
    if (k <= 19) values.push_back(p * 10'000'000'000'000'000'000ull - 1);
  }
  return values;
}

TEST(U128, DecimalDigitsMatchTheRenderedLength) {
  for (const u128 v : decimal_edge_values()) {
    const std::string text = naive_decimal(v);
    EXPECT_EQ(decimal_digits(v), text.size()) << text;
    if (hi64(v) == 0) {
      EXPECT_EQ(decimal_digits(lo64(v)), text.size()) << text;
    }
  }
  static_assert(decimal_digits(std::uint64_t{0}) == 1);
  static_assert(decimal_digits(u128_max) == kMaxDecimalDigits);
}

TEST(U128, FormatDecimalMatchesRepeatedDivision) {
  for (const u128 v : decimal_edge_values()) {
    char buf[kMaxDecimalDigits];
    const std::size_t n = format_decimal(v, buf);
    EXPECT_EQ(std::string(buf, n), naive_decimal(v));
    EXPECT_EQ(to_string(v), naive_decimal(v));
  }
}

} // namespace
} // namespace squid
