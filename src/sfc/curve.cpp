#include "squid/sfc/curve.hpp"

#include "squid/sfc/hilbert.hpp"
#include "squid/sfc/zorder.hpp"
#include "squid/util/require.hpp"

namespace squid::sfc {

Curve::Curve(unsigned dims, unsigned bits_per_dim)
    : dims_(dims), bits_per_dim_(bits_per_dim) {
  SQUID_REQUIRE(dims >= 1, "curve needs at least one dimension");
  SQUID_REQUIRE(bits_per_dim >= 1, "curve needs at least one bit per dim");
  SQUID_REQUIRE(dims * bits_per_dim <= 128,
                "index width dims*bits_per_dim exceeds 128 bits");
}

void Curve::check_point(const Point& point) const {
  SQUID_REQUIRE(point.size() == dims_, "point dimensionality mismatch");
  for (const auto c : point)
    SQUID_REQUIRE(c <= max_coord(), "coordinate exceeds curve resolution");
}

void Curve::check_index(u128 index) const {
  SQUID_REQUIRE(index <= max_index(), "index exceeds curve resolution");
}

Rect Curve::cell_of_prefix(u128 prefix, unsigned level) const {
  SQUID_REQUIRE(level <= bits_per_dim_, "cell level exceeds curve depth");
  SQUID_REQUIRE(prefix <= low_mask(level * dims_), "prefix too wide for level");
  // Digital causality: every index in [prefix << s, (prefix+1) << s) lies in
  // one level-`level` cell, so inverting any representative locates it.
  const unsigned shift_bits = (bits_per_dim_ - level) * dims_;
  // shift_bits == 128 only at level 0 (prefix 0), where a literal shift is UB.
  const Point representative =
      point_of(shift_bits >= 128 ? 0 : prefix << shift_bits);
  const unsigned cell_side_bits = bits_per_dim_ - level;
  Rect cell;
  cell.dims.reserve(dims_);
  for (const auto c : representative) {
    const std::uint64_t lo =
        cell_side_bits >= 64 ? 0 : (c >> cell_side_bits) << cell_side_bits;
    const std::uint64_t width =
        cell_side_bits >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << cell_side_bits) - 1;
    cell.dims.push_back(Interval{lo, lo + width});
  }
  return cell;
}

std::unique_ptr<Curve> make_curve(const std::string& name, unsigned dims,
                                  unsigned bits_per_dim) {
  if (name == "hilbert")
    return std::make_unique<HilbertCurve>(dims, bits_per_dim);
  if (name == "zorder") return std::make_unique<ZOrderCurve>(dims, bits_per_dim);
  if (name == "gray") return std::make_unique<GrayCurve>(dims, bits_per_dim);
  SQUID_REQUIRE(false, "unknown curve family: " + name);
  return nullptr; // unreachable
}

} // namespace squid::sfc
