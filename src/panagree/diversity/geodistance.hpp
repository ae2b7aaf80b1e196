// Geodistance analysis (§VI-B, Fig. 5).
//
// The geodistance of a length-3 path A1-l12-A2-l23-A3 is
//   d(pi) = d(A1, l12) + d(l12, l23) + d(l23, A3),
// where AS positions are centroid artifacts and link positions range over
// the link's candidate facilities; with multiple facilities the minimum
// over combinations is taken, exactly as in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "panagree/diversity/length3.hpp"
#include "panagree/geo/region.hpp"

namespace panagree::diversity {

/// One candidate facility of a link with its great-circle legs to both
/// endpoints: km[0] = geo::great_circle_km(centroid of link.a, city),
/// km[1] the same from link.b - exactly the value the trig returns, so a
/// leg read from a table and one computed on the fly are the same double.
struct FacilityLeg {
  std::uint32_t city = 0;
  double km[2] = {0.0, 0.0};
};

/// The facility legs of one hop seen from one of its endpoints
/// (side 0 = link.a, 1 = link.b).
struct HopLegs {
  std::span<const FacilityLeg> legs;
  std::size_t side = 0;
};

class GeodistanceModel {
 public:
  /// Builds the city-to-city matrix and the per-link leg table. Both are
  /// immutable afterwards, so every query is lock-free. The model
  /// snapshots the graph's link facilities and AS centroids: rebuild it
  /// after mutating them (links added later have no table row).
  GeodistanceModel(const Graph& graph, const geo::World& world);

  /// Geodistance of the length-3 path s-m-d in kilometres (minimized over
  /// facility combinations). Requires links s-m and m-d to exist with
  /// facilities and both endpoints to carry geodata.
  [[nodiscard]] double path_geodistance_km(AsId s, AsId m, AsId d) const;

  /// The same facility-minimizing geodistance with explicit candidate
  /// facility sets for the two hops (city ids in the model's world),
  /// instead of the graph's stored link facilities: the legs are computed
  /// with the trig on every call. This is how callers price hops over
  /// links that do not exist in the base graph (estimate facilities with
  /// topology::estimate_link_facilities and evaluate here). Requires both
  /// sets non-empty and s/d to carry geodata; hops need not be base
  /// links.
  [[nodiscard]] double path_geodistance_km(
      AsId s, AsId m, AsId d, std::span<const std::size_t> facilities_sm,
      std::span<const std::size_t> facilities_md) const;

  /// Table row of base link `link` seen from its endpoint `as`: no trig,
  /// no hashing - the hot path of scenario aggregation.
  [[nodiscard]] HopLegs link_legs(topology::LinkId link, AsId as) const {
    PANAGREE_ASSERT(link + 1 < leg_begin_.size());
    const std::uint32_t begin = leg_begin_[link];
    return {std::span<const FacilityLeg>(legs_.data() + begin,
                                         leg_begin_[link + 1] - begin),
            as == link_a_[link] ? 0u : 1u};
  }

  /// Legs of an arbitrary facility set between `a` and `b` (side 0 seen
  /// from a, side 1 from b), computed with the trig - the rows of links
  /// the table does not know.
  [[nodiscard]] std::vector<FacilityLeg> facility_legs(
      AsId a, AsId b, std::span<const std::size_t> facilities) const;

  /// min over facility pairs (i, j) of
  ///   head.km[i] + city_to_city(head.city[i], tail.city[j]) + tail.km[j]
  /// with `head` seen from the path's source and `tail` from its
  /// destination, head-major like the facility product of §VI-B.
  /// Infinity when either side is empty.
  [[nodiscard]] double path_geodistance_km(const HopLegs& head,
                                           const HopLegs& tail) const {
    double best = std::numeric_limits<double>::infinity();
    for (const FacilityLeg& h : head.legs) {
      const double* row = city_matrix_.data() + h.city * num_cities_;
      const double head_km = h.km[head.side];
      for (const FacilityLeg& t : tail.legs) {
        best = std::min(best, head_km + row[t.city] + t.km[tail.side]);
      }
    }
    return best;
  }

 private:
  [[nodiscard]] double as_to_city_km(AsId as, std::size_t city) const;

  const Graph* graph_;
  const geo::World* world_;
  /// Dense city-to-city distance matrix (city counts are small).
  std::vector<double> city_matrix_;
  std::size_t num_cities_;
  /// The leg table: link l's facilities, in stored order, are
  /// legs_[leg_begin_[l], leg_begin_[l + 1]); link_a_[l] names side 0.
  std::vector<FacilityLeg> legs_;
  std::vector<std::uint32_t> leg_begin_;
  std::vector<AsId> link_a_;
};

/// Per-AS-pair result of the geodistance comparison (Fig. 5a/5b).
struct GeoPairResult {
  std::size_t ma_paths_below_grc_max = 0;
  std::size_t ma_paths_below_grc_median = 0;
  std::size_t ma_paths_below_grc_min = 0;
  /// Relative reduction of the minimum geodistance (0 if not improved).
  double relative_reduction = 0.0;
};

struct GeodistanceReport {
  /// One entry per analyzed AS pair connected by >= 1 GRC length-3 path.
  std::vector<GeoPairResult> pairs;
};

/// Runs the §VI-B comparison for all pairs (src in `sources`, dst with at
/// least one GRC length-3 path from src).
[[nodiscard]] GeodistanceReport analyze_geodistance(
    const Graph& graph, const geo::World& world,
    const std::vector<AsId>& sources);

}  // namespace panagree::diversity
