// 128-bit unsigned index type used for SFC indices and overlay identifiers.
//
// Squid maps d-dimensional keyword coordinates onto a single curve index of
// d*m bits (m bits per dimension). Supporting d*m up to 128 lets us index,
// e.g., 3 attributes of 42 bits each, or 8-character base-26 keywords in 2-3
// dimensions, without an arbitrary-precision integer library.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace squid {

using u128 = unsigned __int128;

inline constexpr u128 u128_max = ~static_cast<u128>(0);

/// Build a u128 from two 64-bit halves.
constexpr u128 make_u128(std::uint64_t hi, std::uint64_t lo) noexcept {
  return (static_cast<u128>(hi) << 64) | lo;
}

constexpr std::uint64_t hi64(u128 v) noexcept {
  return static_cast<std::uint64_t>(v >> 64);
}

constexpr std::uint64_t lo64(u128 v) noexcept {
  return static_cast<std::uint64_t>(v);
}

/// Mask with the low `bits` bits set. `bits` must be in [0, 128].
constexpr u128 low_mask(unsigned bits) noexcept {
  return bits >= 128 ? u128_max : (static_cast<u128>(1) << bits) - 1;
}

/// Number of significant bits (position of highest set bit + 1); 0 for v==0.
constexpr unsigned bit_width(u128 v) noexcept {
  unsigned w = 0;
  while (v != 0) {
    v >>= 1;
    ++w;
  }
  return w;
}

namespace detail {

/// 10^0 .. 10^38: every power of ten a u128 can hold.
inline constexpr std::array<u128, 39> kPow10 = [] {
  std::array<u128, 39> p{};
  u128 v = 1;
  for (u128& x : p) {
    x = v;
    v *= 10;
  }
  return p;
}();

/// Digit count from the bit width: a `width`-bit value has t or t + 1
/// digits, t = floor(width * log10 2), which (width * 1233) >> 12 computes
/// exactly for every width up to 128; one comparison against 10^t picks
/// between the two. `v | 1` maps 0 to 1 (one digit) and never crosses a
/// power of ten, since those are all even above 1.
constexpr unsigned digits_from_width(u128 v, unsigned width) noexcept {
  const unsigned t = (width * 1233) >> 12;
  return t + 1 - ((v | 1) < kPow10[t] ? 1 : 0);
}

} // namespace detail

/// Longest decimal rendering of a u128: u128_max has 39 digits.
inline constexpr std::size_t kMaxDecimalDigits = 39;

/// Length of the decimal rendering of `v` (1 for 0), from arithmetic alone:
/// a bit-width estimate and one comparison, no division, no formatting.
constexpr unsigned decimal_digits(std::uint64_t v) noexcept {
  return detail::digits_from_width(
      v, static_cast<unsigned>(std::bit_width(v | 1)));
}

constexpr unsigned decimal_digits(u128 v) noexcept {
  const std::uint64_t hi = hi64(v);
  const unsigned width =
      hi != 0 ? 64 + static_cast<unsigned>(std::bit_width(hi))
              : static_cast<unsigned>(std::bit_width(lo64(v) | 1));
  return detail::digits_from_width(v, width);
}

/// Write the decimal digits of `v` (no terminator) to `out`, which must
/// hold decimal_digits(v) chars; returns the count written. The value is
/// split on 10^19 into 64-bit chunks, so at most two u128 divisions run.
std::size_t format_decimal(u128 v, char* out) noexcept;

/// Decimal rendering (u128 has no iostream support in the standard library).
std::string to_string(u128 v);

/// Fixed-width binary rendering of the low `bits` bits, most significant
/// first. Useful for inspecting SFC prefixes (digital causality).
std::string to_binary_string(u128 v, unsigned bits);

/// Hexadecimal rendering with a 0x prefix (no leading-zero padding).
std::string to_hex_string(u128 v);

/// Parse a decimal string into a u128. Throws std::invalid_argument on bad
/// input and std::out_of_range on overflow.
u128 parse_u128(std::string_view text);

} // namespace squid
