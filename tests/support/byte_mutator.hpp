// Seeded mutations for the decoder robustness tests
// (message_serialize_test.cpp, serialize_test.cpp). mutate_one_byte makes
// one substitution, insertion, deletion or truncation per call, biased
// toward the bytes the text codecs give meaning to (digits, separators,
// token kinds) so most mutants get past the magic and reach the field
// parsers. mutate_many_bytes makes one multi-byte splice, numeric-field
// rewrite or random-byte tail per call.

#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "squid/util/rng.hpp"

namespace squid::testing_support {

inline std::string mutate_one_byte(const std::string& text, Rng& rng) {
  static constexpr std::string_view kPalette = "0123456789 -:\nsn";
  const auto pick_byte = [&rng] {
    // One draw in four is an arbitrary byte, the rest come from kPalette.
    return rng.below(4) == 0
               ? static_cast<char>(rng.below(256))
               : kPalette[static_cast<std::size_t>(rng.below(kPalette.size()))];
  };
  std::string out = text;
  const auto at = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.below(bound));
  };
  switch (text.empty() ? 1 : rng.below(4)) {
  case 0: // substitution
    out[at(out.size())] = pick_byte();
    break;
  case 1: // insertion
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at(out.size() + 1)),
               pick_byte());
    break;
  case 2: // deletion
    out.erase(at(out.size()), 1);
    break;
  default: // truncation
    out.resize(at(out.size()));
    break;
  }
  return out;
}

/// Replace a run of 0-8 bytes with a copy of another run of 2-16 bytes of
/// the same text: duplicated or dropped fields, tokens cut mid-way.
inline std::string splice_bytes(const std::string& text, Rng& rng) {
  if (text.empty()) return text;
  const auto at = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.below(bound));
  };
  const std::size_t from = at(text.size());
  const std::string piece = text.substr(from, 2 + at(15));
  const std::size_t to = at(text.size() + 1);
  std::string out = text;
  out.replace(to, at(9), piece);
  return out;
}

/// Rewrite one decimal field (a maximal digit run) as 0, a number of 20 to
/// 40 digits (past every integer width the codecs use), or its negative.
inline std::string rewrite_number(const std::string& text, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> runs; // begin, length
  for (std::size_t i = 0; i < text.size();) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end])))
      ++end;
    runs.emplace_back(i, end - i);
    i = end;
  }
  if (runs.empty()) return text;
  const auto [begin, length] =
      runs[static_cast<std::size_t>(rng.below(runs.size()))];
  std::string number;
  switch (rng.below(3)) {
  case 0:
    number = "0";
    break;
  case 1:
    number.push_back(static_cast<char>('1' + rng.below(9)));
    for (std::uint64_t n = 19 + rng.below(21); n-- > 0;)
      number.push_back(static_cast<char>('0' + rng.below(10)));
    break;
  default:
    number = "-" + text.substr(begin, length);
    break;
  }
  std::string out = text;
  out.replace(begin, length, number);
  return out;
}

/// Keep a random prefix of the text and append 0-64 random bytes (with an
/// empty prefix, a frame of pure noise).
inline std::string random_byte_tail(const std::string& text, Rng& rng) {
  std::string out =
      text.substr(0, static_cast<std::size_t>(rng.below(text.size() + 1)));
  for (std::uint64_t n = rng.below(65); n-- > 0;)
    out.push_back(static_cast<char>(rng.below(256)));
  return out;
}

/// One multi-byte mutation: a splice, a numeric-field rewrite or a random
/// byte tail, chosen uniformly.
inline std::string mutate_many_bytes(const std::string& text, Rng& rng) {
  switch (rng.below(3)) {
  case 0:
    return splice_bytes(text, rng);
  case 1:
    return rewrite_number(text, rng);
  default:
    return random_byte_tail(text, rng);
  }
}

} // namespace squid::testing_support
