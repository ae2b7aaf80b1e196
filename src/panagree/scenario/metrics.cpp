#include "panagree/scenario/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <optional>

#include "panagree/geo/coordinates.hpp"
#include "panagree/paths/enumerator.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::scenario {

namespace {

/// path_fee of one unit over `link` (a topology::Link or a LinkChange):
/// the economy's price of its (provider, customer) pair for a
/// provider-customer link, 0 for a peering or without an economy.
template <typename Link>
double unit_price(const econ::Economy* economy, const Link& link) {
  return economy != nullptr && link.type == LinkType::kProviderCustomer
             ? economy->link_pricing(link.a, link.b)(1.0)
             : 0.0;
}

/// The Scratches of one parallel fold. A worker borrows one per source
/// and hands it back, so a fan-out allocates at most one per worker (each
/// holds a slot per AS), and all of them are freed with the pool.
class ScratchPool {
 public:
  explicit ScratchPool(const MetricsAggregator& aggregator)
      : aggregator_(&aggregator) {}

  [[nodiscard]] SourceContribution contribution(const Overlay& overlay,
                                                const SourcePathSet& result) {
    MetricsAggregator::Scratch* scratch = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (idle_.empty()) {
        idle_.push_back(&all_.emplace_back());
      }
      scratch = idle_.back();
      idle_.pop_back();
    }
    const SourceContribution out =
        aggregator_->contribution(overlay, result, *scratch);
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(scratch);
    return out;
  }

 private:
  const MetricsAggregator* aggregator_;
  std::mutex mutex_;
  std::deque<MetricsAggregator::Scratch> all_;  // stable addresses
  std::vector<MetricsAggregator::Scratch*> idle_;
};

}  // namespace

SourcePathSet enumerate_length3(const Overlay& overlay, AsId src) {
  const paths::BasicPathEnumerator<Overlay> enumerator(overlay);
  SourcePathSet out;
  enumerator.visit_paths(src, 3, paths::ValleyFreeStep{},
                         [&](const paths::Path& path) {
                           if (path.size() == 3) {
                             out.add_grc({path[0], path[1], path[2]});
                           }
                           return true;
                         });
  enumerator.visit_paths(src, 3,
                         paths::BasicMaLength3Step<Overlay>(overlay, true),
                         [&](const paths::Path& path) {
                           if (path.size() == 3) {
                             out.add_ma({path[0], path[1], path[2]});
                           }
                           return true;
                         });
  out.shrink_to_fit();
  return out;
}

MetricsDelta subtract(const ScenarioMetrics& scenario,
                      const ScenarioMetrics& baseline) {
  MetricsDelta delta;
  delta.paths =
      static_cast<double>(scenario.grc_paths + scenario.ma_paths) -
      static_cast<double>(baseline.grc_paths + baseline.ma_paths);
  delta.pairs =
      static_cast<double>(scenario.grc_pairs + scenario.ma_extra_pairs) -
      static_cast<double>(baseline.grc_pairs + baseline.ma_extra_pairs);
  delta.mean_best_geodistance_km = scenario.mean_best_geodistance_km -
                                   baseline.mean_best_geodistance_km;
  delta.transit_fees = scenario.transit_fees - baseline.transit_fees;
  return delta;
}

double operator_utility(const MetricsDelta& delta,
                        const UtilityWeights& weights) {
  return -delta.transit_fees + weights.per_new_pair * delta.pairs -
         weights.per_km_regression * delta.mean_best_geodistance_km;
}

ScenarioMetrics finalize(const SourceContribution& total) {
  ScenarioMetrics metrics;
  metrics.grc_paths = total.grc_paths;
  metrics.ma_paths = total.ma_paths;
  metrics.grc_pairs = total.grc_pairs;
  metrics.ma_extra_pairs = total.ma_extra_pairs;
  metrics.transit_fees = total.transit_fees;
  if (total.km_pairs > 0) {
    metrics.mean_best_geodistance_km =
        total.km_sum / static_cast<double>(total.km_pairs);
  }
  return metrics;
}

DiversityCounts count_diversity(const SourcePathSet& result) {
  // The sorted-unique destination lists of the GRC set and the MA set
  // decide pair membership.
  const auto destinations = [](const SourcePathSet::Paths& paths) {
    std::vector<AsId> dsts;
    dsts.reserve(paths.size());
    for (const diversity::Length3Path& path : paths) {
      dsts.push_back(path.dst);
    }
    std::sort(dsts.begin(), dsts.end());
    dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
    return dsts;
  };
  DiversityCounts out;
  out.grc_paths = result.grc().size();
  out.ma_paths = result.ma().size();
  const std::vector<AsId> grc_dsts = destinations(result.grc());
  out.grc_pairs = grc_dsts.size();
  for (const AsId dst : destinations(result.ma())) {
    if (!std::binary_search(grc_dsts.begin(), grc_dsts.end(), dst)) {
      ++out.ma_extra_pairs;
    }
  }
  return out;
}

DiversityCounts count_diversity(
    std::span<const SourcePathSet* const> results) {
  DiversityCounts out;
  for (const SourcePathSet* result : results) {
    out += count_diversity(*result);
  }
  return out;
}

MetricsAggregator::MetricsAggregator(const CompiledTopology& base,
                                     const geo::World* world,
                                     const econ::Economy* economy)
    : base_(&base), world_(world), economy_(economy) {
  if (world_ != nullptr) {
    geodesy_.emplace(base.graph(), *world_);
    has_geo_.reserve(base.num_ases());
    for (AsId as = 0; as < base.num_ases(); ++as) {
      has_geo_.push_back(base.graph().info(as).has_geo ? 1 : 0);
    }
  }
  // Estimated facilities of added links must not out-minimize real ones:
  // cap at the densest base link (falling back to the generator default
  // when the base graph stores no facilities at all). The same pass prices
  // one unit over every base link, as path_fee would.
  std::size_t max_stored = 0;
  unit_fees_.reserve(base.graph().links().size());
  for (const topology::Link& link : base.graph().links()) {
    max_stored = std::max(max_stored, link.facilities.size());
    unit_fees_.push_back(unit_price(economy_, link));
  }
  if (max_stored > 0) {
    max_estimated_facilities_ = max_stored;
  }
}

double MetricsAggregator::path_geodistance_km(const Overlay& overlay,
                                              AsId s, AsId m, AsId d) const {
  util::require(geodesy_.has_value(),
                "MetricsAggregator: constructed without a geo::World");
  const auto l1 = overlay.link_between(s, m);
  const auto l2 = overlay.link_between(m, d);
  util::require(l1.has_value() && l2.has_value(),
                "path_geodistance_km: path hops must be linked");
  Scratch scratch;
  const diversity::HopLegs head = hop_legs(overlay, *l1, s, scratch);
  return path_km(overlay, {s, m, d}, *l1, head, *l2, scratch);
}

diversity::HopLegs MetricsAggregator::hop_legs(const Overlay& overlay,
                                               std::uint32_t link,
                                               AsId from,
                                               Scratch& scratch) const {
  if (link < overlay.first_added_link_id()) {
    return geodesy_->link_legs(link, from);
  }
  // An added link stores no facilities yet: estimate candidates from the
  // endpoint PoP sets, the same rule the generator assigns real links
  // with, so the what-if hop is priced like its recompiled version. The
  // estimate depends only on the link, so the Scratch keeps it for every
  // later path over the same link.
  const LinkChange& change = overlay.added_link(link);
  const auto it = std::find_if(
      scratch.added_legs_.begin(), scratch.added_legs_.end(),
      [&](const Scratch::AddedLegs& entry) { return entry.link == change; });
  const Scratch::AddedLegs& entry =
      it != scratch.added_legs_.end()
          ? *it
          : scratch.added_legs_.emplace_back([&] {
              topology::Link estimated;
              estimated.a = change.a;
              estimated.b = change.b;
              estimated.type = change.type;
              return Scratch::AddedLegs{
                  change,
                  geodesy_->facility_legs(
                      change.a, change.b,
                      topology::estimate_link_facilities(
                          base_->graph(), *world_, estimated,
                          max_estimated_facilities_))};
            }());
  return {entry.legs, from == change.a ? 0u : 1u};
}

double MetricsAggregator::path_km(const Overlay& overlay,
                                  const diversity::Length3Path& path,
                                  std::uint32_t l1,
                                  const diversity::HopLegs& head,
                                  std::uint32_t l2, Scratch& scratch) const {
  const diversity::HopLegs tail = hop_legs(overlay, l2, path.dst, scratch);
  if (head.legs.empty() || tail.legs.empty()) {
    util::require(l1 >= overlay.first_added_link_id() ||
                      l2 >= overlay.first_added_link_id(),
                  "path_geodistance_km: links need facilities");
    // Last resort - an added-link endpoint without PoPs: endpoint-centroid
    // legs.
    const topology::Graph& graph = base_->graph();
    return geo::great_circle_km(graph.info(path.src).centroid,
                                graph.info(path.mid).centroid) +
           geo::great_circle_km(graph.info(path.mid).centroid,
                                graph.info(path.dst).centroid);
  }
  return geodesy_->path_geodistance_km(head, tail);
}

double MetricsAggregator::unit_fee(const Overlay& overlay,
                                   std::uint32_t link) const {
  if (link < overlay.first_added_link_id()) {
    return unit_fees_[link];
  }
  return unit_price(economy_, overlay.added_link(link));
}

double MetricsAggregator::path_fee(const Overlay& overlay,
                                   std::span<const AsId> path,
                                   double volume) const {
  double fee = 0.0;
  if (economy_ == nullptr) {
    return fee;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::optional<NeighborRole> role =
        overlay.role_of(path[i], path[i + 1]);
    PANAGREE_ASSERT(role.has_value());
    switch (*role) {
      case NeighborRole::kProvider:
        fee += economy_->link_pricing(path[i + 1], path[i])(volume);
        break;
      case NeighborRole::kCustomer:
        fee += economy_->link_pricing(path[i], path[i + 1])(volume);
        break;
      case NeighborRole::kPeer:
        break;
    }
  }
  return fee;
}

SourceContribution MetricsAggregator::contribution(
    const Overlay& overlay, const SourcePathSet& result,
    Scratch& scratch) const {
  if (scratch.overlay_ != &overlay) {
    // The added-link memo follows the scenario (its entries are keyed by
    // link content, so this only bounds its size).
    scratch.overlay_ = &overlay;
    scratch.added_legs_.clear();
  }
  const std::size_t n = base_->num_ases();
  if (scratch.slots_.size() != n) {
    scratch.slots_.assign(n, Scratch::Best{});
    scratch.live_.assign((n + 63) / 64, 0);
    scratch.link_of_.assign(n, Scratch::LinkOf{});
    scratch.run_stamp_ = 0;
  } else {
    std::fill(scratch.live_.begin(), scratch.live_.end(), 0);
  }
  SourceContribution out;
  out.grc_paths = result.grc().size();
  out.ma_paths = result.ma().size();

  using Best = Scratch::Best;
  Best* const slots = scratch.slots_.data();
  std::uint64_t* const live = scratch.live_.data();
  Scratch::LinkOf* const link_of = scratch.link_of_.data();
  const auto consider = [&](AsId dst, std::uint32_t l1, std::uint32_t l2,
                            bool grc, bool has_km, double km) {
    Best& slot = slots[dst];
    std::uint64_t& word = live[dst / 64];
    const std::uint64_t bit = std::uint64_t{1} << (dst % 64);
    // Without geodata the first-enumerated path wins (deterministic);
    // with it, the strictly shortest one.
    if ((word & bit) == 0) {
      word |= bit;
      slot.l1 = l1;
      slot.l2 = l2;
      slot.km = has_km ? km : std::numeric_limits<double>::infinity();
      slot.has_km = has_km;
      slot.grc_reachable = grc;
      return;
    }
    slot.grc_reachable = slot.grc_reachable || grc;
    if (has_km && km < slot.km) {
      slot.l1 = l1;
      slot.l2 = l2;
      slot.km = km;
      slot.has_km = true;
    }
  };
  // Per hop run, the mid's overlaid row is scattered into link_of once
  // (the row holds exactly the links link_between resolves: added ones
  // included, removed ones absent), so the s-m link and each path's m-d
  // link are one stamped load; the s-m legs are looked up once per run
  // and each path's geodistance is a table-driven facility minimum.
  const AsId src = result.source();
  const auto fold = [&](const SourcePathSet::Paths& paths, bool grc) {
    paths.for_each_run([&](AsId mid, std::span<const AsId> dsts) {
      if (++scratch.run_stamp_ == 0) {
        std::fill(scratch.link_of_.begin(), scratch.link_of_.end(),
                  Scratch::LinkOf{});
        scratch.run_stamp_ = 1;
      }
      const std::uint32_t stamp = scratch.run_stamp_;
      overlay.for_each_entry(mid, [&](const Overlay::Entry& entry) {
        link_of[entry.neighbor] = {stamp, entry.link};
      });
      const auto link_to = [&](AsId as) {
        const Scratch::LinkOf slot = link_of[as];
        util::require(slot.stamp == stamp,
                      "MetricsAggregator::contribution: path hops must be "
                      "linked");
        return slot.link;
      };
      const std::uint32_t l1 = link_to(src);
      const bool run_geo = geodesy_.has_value() && has_geo_[src] != 0 &&
                           has_geo_[mid] != 0;
      diversity::HopLegs head;
      if (run_geo) {
        head = hop_legs(overlay, l1, src, scratch);
      }
      for (const AsId dst : dsts) {
        const std::uint32_t l2 = link_to(dst);
        if (!run_geo || has_geo_[dst] == 0) {
          consider(dst, l1, l2, grc, false, 0.0);
          continue;
        }
        consider(dst, l1, l2, grc, true,
                 path_km(overlay, {src, mid, dst}, l1, head, l2, scratch));
      }
    });
  };
  fold(result.grc(), /*grc=*/true);
  fold(result.ma(), /*grc=*/false);

  // Fold in ascending destination order: the float sums must be a pure
  // function of (overlay, result), because the serving layer splices
  // independently computed contributions into cached ones (byte-identity
  // contract). Each best path's fee is path_fee(overlay, path, 1.0) to the
  // bit: the same additions in hop order, where a peering hop adds +0.0.
  for (std::size_t w = 0; w < scratch.live_.size(); ++w) {
    for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      const Best& slot = slots[w * 64 + std::countr_zero(bits)];
      if (slot.grc_reachable) {
        ++out.grc_pairs;
      } else {
        ++out.ma_extra_pairs;
      }
      if (slot.has_km) {
        out.km_sum += slot.km;
        ++out.km_pairs;
      }
      double fee = 0.0;
      fee += unit_fee(overlay, slot.l1);
      fee += unit_fee(overlay, slot.l2);
      out.transit_fees += fee;
    }
  }
  return out;
}

ScenarioMetrics MetricsAggregator::aggregate(
    const Overlay& overlay, const std::vector<AsId>& sources,
    const std::vector<SourcePathSet>& results) const {
  util::require(sources.size() == results.size(),
                "MetricsAggregator::aggregate: sources/results mismatch");
  Scratch scratch;
  SourceContribution total;
  for (const SourcePathSet& result : results) {
    total += contribution(overlay, result, scratch);
  }
  return finalize(total);
}

SliceSum<SourceContribution> MetricsAggregator::contributions(
    const Overlay& overlay, std::span<const SourcePathSet> results,
    std::size_t threads) const {
  ScratchPool pool(*this);
  return SliceSum<SourceContribution>(
      paths::map_indices(results.size(), threads, [&](std::size_t i) {
        return pool.contribution(overlay, results[i]);
      }));
}

SourceContribution MetricsAggregator::whatif_total(
    const SweepRunner<SourcePathSet>& runner,
    const SliceSum<SourceContribution>& state, const Delta& delta,
    std::size_t threads, SweepStats* stats) const {
  ScratchPool pool(*this);
  DirtySlice<SourceContribution> dirty;
  runner.evaluate_dirty_visit(
      delta,
      [&](const Overlay& overlay, AsId src) {
        return pool.contribution(overlay, enumerate_length3(overlay, src));
      },
      dirty, threads, stats);
  return state.spliced(dirty.positions, dirty.results);
}

}  // namespace panagree::scenario
