#include "panagree/geo/coordinates.hpp"

#include <cmath>
#include <numbers>

namespace panagree::geo {

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;
constexpr double kRadToDeg = 180.0 / std::numbers::pi;
}  // namespace

PreparedPoint prepare(const LatLng& p) {
  return {p, std::cos(p.lat_deg * kDegToRad)};
}

double great_circle_km(const PreparedPoint& a, const PreparedPoint& b) {
  const double dlat = (b.point.lat_deg - a.point.lat_deg) * kDegToRad;
  const double dlng = (b.point.lng_deg - a.point.lng_deg) * kDegToRad;
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlng = std::sin(dlng / 2.0);
  const double h =
      sin_dlat * sin_dlat + a.cos_lat * b.cos_lat * sin_dlng * sin_dlng;
  const double clamped = std::min(1.0, std::sqrt(h));
  return 2.0 * kEarthRadiusKm * std::asin(clamped);
}

double great_circle_km(const LatLng& a, const LatLng& b) {
  return great_circle_km(prepare(a), prepare(b));
}

LatLng spherical_centroid(std::span<const LatLng> points) {
  if (points.empty()) {
    return {};
  }
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  for (const LatLng& p : points) {
    const double lat = p.lat_deg * kDegToRad;
    const double lng = p.lng_deg * kDegToRad;
    x += std::cos(lat) * std::cos(lng);
    y += std::cos(lat) * std::sin(lng);
    z += std::sin(lat);
  }
  const auto n = static_cast<double>(points.size());
  x /= n;
  y /= n;
  z /= n;
  const double hyp = std::sqrt(x * x + y * y);
  if (hyp == 0.0 && z == 0.0) {
    return {};  // antipodal degenerate case; pick the origin
  }
  return LatLng{std::atan2(z, hyp) * kRadToDeg, std::atan2(y, x) * kRadToDeg};
}

bool is_valid(const LatLng& p) {
  return p.lat_deg >= -90.0 && p.lat_deg <= 90.0 && p.lng_deg >= -180.0 &&
         p.lng_deg <= 180.0 && std::isfinite(p.lat_deg) &&
         std::isfinite(p.lng_deg);
}

}  // namespace panagree::geo
