#include "panagree/diversity/geodistance.hpp"

#include <algorithm>
#include <limits>
#include "panagree/geo/coordinates.hpp"

namespace panagree::diversity {

GeodistanceModel::GeodistanceModel(const Graph& graph, const geo::World& world)
    : graph_(&graph), world_(&world), num_cities_(world.cities().size()) {
  // Both tables measure from these points (and each AS centroid below)
  // over and over, so each point's cos(lat) is computed once.
  std::vector<geo::PreparedPoint> cities(num_cities_);
  for (std::size_t c = 0; c < num_cities_; ++c) {
    cities[c] = geo::prepare(world.city(c).location);
  }
  city_matrix_.assign(num_cities_ * num_cities_, 0.0);
  for (std::size_t a = 0; a < num_cities_; ++a) {
    for (std::size_t b = a + 1; b < num_cities_; ++b) {
      const double d = geo::great_circle_km(cities[a], cities[b]);
      city_matrix_[a * num_cities_ + b] = d;
      city_matrix_[b * num_cities_ + a] = d;
    }
  }
  // The leg table: every AS-to-facility leg a path over a base link can
  // need, computed with the same trig the on-the-fly legs use. Sized
  // exactly up front: a growing vector would briefly hold two copies,
  // which shows in a daemon's peak RSS.
  const std::vector<topology::Link>& links = graph.links();
  std::size_t total = 0;
  for (const topology::Link& link : links) {
    total += link.facilities.size();
  }
  // 32-bit offsets: into the legs, and into the incident lists (two
  // entries a link).
  util::require(
      total <= std::numeric_limits<std::uint32_t>::max() &&
          links.size() <= std::numeric_limits<std::uint32_t>::max() / 2,
      "GeodistanceModel: leg table exceeds 32-bit offsets");
  legs_.resize(total);
  leg_begin_.resize(links.size() + 1);
  link_a_.resize(links.size());
  // First pass: each link's facility cities in stored order, and how many
  // links meet at each AS; summed, incident_begin[as] is the end of as's
  // range in `incident`.
  const std::size_t num_ases = graph.num_ases();
  std::vector<std::uint32_t> incident_begin(num_ases + 1, 0);
  std::uint32_t next = 0;
  for (std::size_t l = 0; l < links.size(); ++l) {
    const topology::Link& link = links[l];
    leg_begin_[l] = next;
    link_a_[l] = link.a;
    for (const std::size_t city : link.facilities) {
      util::require(city < num_cities_,
                    "GeodistanceModel: facility city out of range");
      legs_[next++].city = static_cast<std::uint32_t>(city);
    }
    ++incident_begin[link.a];
    ++incident_begin[link.b];
  }
  leg_begin_[links.size()] = next;
  for (std::size_t as = 1; as <= num_ases; ++as) {
    incident_begin[as] += incident_begin[as - 1];
  }
  // Filling each range from its end leaves incident_begin[as] at its
  // start; walking the links backwards keeps every range ascending.
  std::vector<std::uint32_t> incident(incident_begin[num_ases]);
  for (std::size_t l = links.size(); l-- > 0;) {
    incident[--incident_begin[links[l].a]] = static_cast<std::uint32_t>(l);
    incident[--incident_begin[links[l].b]] = static_cast<std::uint32_t>(l);
  }
  // Second pass: the kilometres, one great circle per distinct (AS, city)
  // (39,730 for the 145,546 legs of the 3000-AS fixture). An AS meets the
  // same city over many links - its PoPs, IXP fabrics, a provider's haul
  // facilities, the nearest PoP of a peer - so each AS walks its incident
  // links with a per-city memo stamped by the AS id. The memo is keyed on
  // the city, not on PoP membership: most legs end in a city that is not
  // a PoP of their AS. Same arguments, same double.
  std::vector<double> memo_km(num_cities_);
  std::vector<AsId> memo_as(num_cities_, topology::kInvalidAs);
  for (AsId as = 0; as < num_ases; ++as) {
    const geo::PreparedPoint centroid = geo::prepare(graph.info(as).centroid);
    for (std::uint32_t i = incident_begin[as]; i < incident_begin[as + 1];
         ++i) {
      const std::uint32_t l = incident[i];
      const std::size_t side = link_a_[l] == as ? 0 : 1;
      for (std::uint32_t k = leg_begin_[l]; k < leg_begin_[l + 1]; ++k) {
        FacilityLeg& leg = legs_[k];
        if (memo_as[leg.city] != as) {
          memo_as[leg.city] = as;
          memo_km[leg.city] = geo::great_circle_km(centroid, cities[leg.city]);
        }
        leg.km[side] = memo_km[leg.city];
      }
    }
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
