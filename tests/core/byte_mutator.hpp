// Seeded single-byte mutations for the decoder robustness tests
// (message_serialize_test.cpp, serialize_test.cpp): one substitution,
// insertion, deletion or truncation per call, biased toward the bytes the
// text codecs give meaning to (digits, separators, token kinds) so most
// mutants get past the magic and reach the field parsers.

#pragma once

#include <string>
#include <string_view>

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

} // namespace squid::testing_support
