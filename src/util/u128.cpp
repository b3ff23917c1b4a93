#include "squid/util/u128.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace squid {

namespace {

constexpr std::uint64_t kTen19 = 10'000'000'000'000'000'000ull;

std::size_t put_u64(std::uint64_t v, char* out) noexcept {
  return static_cast<std::size_t>(std::to_chars(out, out + 20, v).ptr - out);
}

/// Exactly 19 digits, zero-padded: a low chunk below a higher one.
void put_chunk(std::uint64_t v, char* out) noexcept {
  for (int i = 18; i >= 0; --i) {
    out[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

} // namespace

std::size_t format_decimal(u128 v, char* out) noexcept {
  if (hi64(v) == 0) return put_u64(lo64(v), out);
  // v >= 2^64 > 10^19, so `high` is nonzero; it fits 64 bits unless v is
  // at least 10^19 * 2^64, when a second split leaves a single top digit.
  const u128 high = v / kTen19;
  const std::uint64_t low = lo64(v - high * kTen19);
  std::size_t n = 0;
  if (hi64(high) == 0) {
    n = put_u64(lo64(high), out);
  } else {
    const u128 top = high / kTen19;
    n = put_u64(lo64(top), out);
    put_chunk(lo64(high - top * kTen19), out + n);
    n += 19;
  }
  put_chunk(low, out + n);
  return n + 19;
}

std::string to_string(u128 v) {
  char digits[kMaxDecimalDigits];
  return std::string(digits, format_decimal(v, digits));
}

std::string to_binary_string(u128 v, unsigned bits) {
  if (bits > 128) throw std::invalid_argument("to_binary_string: bits > 128");
  std::string out(bits, '0');
  for (unsigned i = 0; i < bits; ++i) {
    if ((v >> i) & 1) out[bits - 1 - i] = '1';
  }
  return out;
}

std::string to_hex_string(u128 v) {
  static constexpr char digits[] = "0123456789abcdef";
  if (v == 0) return "0x0";
  std::string out;
  while (v != 0) {
    out.push_back(digits[static_cast<unsigned>(v & 0xf)]);
    v >>= 4;
  }
  out += "x0";
  std::reverse(out.begin(), out.end());
  return out;
}

u128 parse_u128(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("parse_u128: empty input");
  u128 value = 0;
  for (char c : text) {
    if (c < '0' || c > '9')
      throw std::invalid_argument("parse_u128: non-digit character");
    const u128 digit = static_cast<u128>(c - '0');
    if (value > (u128_max - digit) / 10)
      throw std::out_of_range("parse_u128: overflow");
    value = value * 10 + digit;
  }
  return value;
}

} // namespace squid
