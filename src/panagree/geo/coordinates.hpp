// Geographic primitives: lat/long coordinates, great-circle distance, and
// spherical centroids.
//
// The paper (§VI-B) geolocates each AS at the "center of gravity" of its
// prefixes and measures path geodistance as the sum of great-circle legs
// AS-center -> link -> link -> AS-center. These helpers implement exactly
// that arithmetic.
#pragma once

#include <span>

namespace panagree::geo {

/// Mean Earth radius in kilometres (IUGG).
inline constexpr double kEarthRadiusKm = 6371.0088;

/// A point on the sphere, in degrees.
struct LatLng {
  double lat_deg = 0.0;
  double lng_deg = 0.0;

  friend bool operator==(const LatLng&, const LatLng&) = default;
};

/// Great-circle (haversine) distance between two points, in kilometres.
[[nodiscard]] double great_circle_km(const LatLng& a, const LatLng& b);

/// A point with the cosine of its latitude computed once, for callers
/// that measure many great circles from the same points (the geodistance
/// tables: 59,630 circles over 3,200 points on the 3000-AS fixture).
struct PreparedPoint {
  LatLng point;
  double cos_lat = 1.0;
};

[[nodiscard]] PreparedPoint prepare(const LatLng& p);

/// The haversine itself; the LatLng overload prepares both points and
/// calls it, so both return the same double for the same points.
[[nodiscard]] double great_circle_km(const PreparedPoint& a,
                                     const PreparedPoint& b);

/// Spherical center of gravity of a set of points (3D mean, re-projected).
/// This is the "averaging the resulting coordinates" step the paper applies
/// to AS prefixes; returns {0, 0} for an empty span.
[[nodiscard]] LatLng spherical_centroid(std::span<const LatLng> points);

/// Validates that a coordinate is a physical lat/long pair.
[[nodiscard]] bool is_valid(const LatLng& p);

}  // namespace panagree::geo
