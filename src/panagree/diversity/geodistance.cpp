#include "panagree/diversity/geodistance.hpp"

#include <algorithm>
#include <limits>
#include "panagree/geo/coordinates.hpp"

namespace panagree::diversity {

GeodistanceModel::GeodistanceModel(const Graph& graph, const geo::World& world)
    : graph_(&graph), world_(&world), num_cities_(world.cities().size()) {
  city_matrix_.assign(num_cities_ * num_cities_, 0.0);
  for (std::size_t a = 0; a < num_cities_; ++a) {
    for (std::size_t b = a + 1; b < num_cities_; ++b) {
      const double d = geo::great_circle_km(world.city(a).location,
                                            world.city(b).location);
      city_matrix_[a * num_cities_ + b] = d;
      city_matrix_[b * num_cities_ + a] = d;
    }
  }
  // The leg table: every AS-to-facility leg a path over a base link can
  // need, computed once with the same trig the on-the-fly legs use.
  // Sized exactly up front: a growing vector would briefly hold two
  // copies, which shows in a daemon's peak RSS.
  const std::vector<topology::Link>& links = graph.links();
  std::size_t total = 0;
  for (const topology::Link& link : links) {
    total += link.facilities.size();
  }
  util::require(total <= std::numeric_limits<std::uint32_t>::max(),
                "GeodistanceModel: leg table exceeds 32-bit offsets");
  legs_.reserve(total);
  leg_begin_.reserve(links.size() + 1);
  link_a_.reserve(links.size());
  leg_begin_.push_back(0);
  for (const topology::Link& link : links) {
    const std::vector<FacilityLeg> row =
        facility_legs(link.a, link.b, link.facilities);
    legs_.insert(legs_.end(), row.begin(), row.end());
    leg_begin_.push_back(static_cast<std::uint32_t>(legs_.size()));
    link_a_.push_back(link.a);
  }
}

double GeodistanceModel::as_to_city_km(AsId as, std::size_t city) const {
  return geo::great_circle_km(graph_->info(as).centroid,
                              world_->city(city).location);
}

std::vector<FacilityLeg> GeodistanceModel::facility_legs(
    AsId a, AsId b, std::span<const std::size_t> facilities) const {
  std::vector<FacilityLeg> legs;
  legs.reserve(facilities.size());
  for (const std::size_t city : facilities) {
    util::require(city < num_cities_,
                  "GeodistanceModel: facility city out of range");
    legs.push_back(FacilityLeg{static_cast<std::uint32_t>(city),
                               {as_to_city_km(a, city),
                                as_to_city_km(b, city)}});
  }
  return legs;
}

double GeodistanceModel::path_geodistance_km(AsId s, AsId m, AsId d) const {
  util::require(graph_->info(s).has_geo && graph_->info(d).has_geo,
                "path_geodistance_km: endpoints need geodata");
  const auto l1 = graph_->link_between(s, m);
  const auto l2 = graph_->link_between(m, d);
  util::require(l1.has_value() && l2.has_value(),
                "path_geodistance_km: path hops must be linked");
  util::require(*l1 < link_a_.size() && *l2 < link_a_.size(),
                "path_geodistance_km: link added after the model was built");
  const HopLegs head = link_legs(*l1, s);
  const HopLegs tail = link_legs(*l2, d);
  util::require(!head.legs.empty() && !tail.legs.empty(),
                "path_geodistance_km: links need facilities");
  return path_geodistance_km(head, tail);
}

double GeodistanceModel::path_geodistance_km(
    AsId s, AsId m, AsId d, std::span<const std::size_t> facilities_sm,
    std::span<const std::size_t> facilities_md) const {
  util::require(graph_->info(s).has_geo && graph_->info(d).has_geo,
                "path_geodistance_km: endpoints need geodata");
  util::require(!facilities_sm.empty() && !facilities_md.empty(),
                "path_geodistance_km: links need facilities");
  const std::vector<FacilityLeg> head = facility_legs(s, m, facilities_sm);
  const std::vector<FacilityLeg> tail = facility_legs(m, d, facilities_md);
  return path_geodistance_km(HopLegs{head, 0}, HopLegs{tail, 1});
}

GeodistanceReport analyze_geodistance(const Graph& graph,
                                      const geo::World& world,
                                      const std::vector<AsId>& sources) {
  GeodistanceReport report;
  const GeodistanceModel model(graph, world);
  const Length3Analyzer analyzer(graph);

  struct PairAccumulator {
    std::vector<float> grc;
    std::vector<float> ma;
  };

  for (const AsId src : sources) {
    std::unordered_map<AsId, PairAccumulator> per_dst;
    for (const Length3Path& p : analyzer.grc_paths(src)) {
      per_dst[p.dst].grc.push_back(
          static_cast<float>(model.path_geodistance_km(p.src, p.mid, p.dst)));
    }
    for (const Length3Path& p : analyzer.ma_paths(src)) {
      const auto it = per_dst.find(p.dst);
      if (it == per_dst.end()) {
        continue;  // pair not GRC-connected at length 3: out of scope
      }
      it->second.ma.push_back(
          static_cast<float>(model.path_geodistance_km(p.src, p.mid, p.dst)));
    }
    for (auto& [dst, acc] : per_dst) {
      if (acc.grc.empty()) {
        continue;
      }
      std::sort(acc.grc.begin(), acc.grc.end());
      const float grc_min = acc.grc.front();
      const float grc_max = acc.grc.back();
      const float grc_median = acc.grc[acc.grc.size() / 2];
      GeoPairResult result;
      float ma_min = std::numeric_limits<float>::infinity();
      for (const float g : acc.ma) {
        if (g < grc_max) {
          ++result.ma_paths_below_grc_max;
        }
        if (g < grc_median) {
          ++result.ma_paths_below_grc_median;
        }
        if (g < grc_min) {
          ++result.ma_paths_below_grc_min;
        }
        ma_min = std::min(ma_min, g);
      }
      if (ma_min < grc_min) {
        result.relative_reduction =
            1.0 - static_cast<double>(ma_min) / static_cast<double>(grc_min);
      }
      report.pairs.push_back(result);
    }
  }
  return report;
}

}  // namespace panagree::diversity
