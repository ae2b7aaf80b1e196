// End-host path construction: combining up-/down-segments (plus peering and
// agreement crossings) into end-to-end AS-level paths.
//
// This is where PANs differ from BGP: the *source* composes the forwarding
// path and embeds it in packet headers, so GRC-violating crossings enabled
// by mutuality-based agreements (§III-B) are simply additional authorized
// ways to join two segments - no convergence question arises.
//
// All adjacency/role queries run on a CompiledTopology (CSR) snapshot
// compiled at construction, and candidate validation goes through the
// shared paths::PathEnumerator. enumerate_authorized() additionally
// exposes the agreement-crossing rule as a step policy on the same engine:
// an exhaustive DFS ground truth for the segment-join construction.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "panagree/pan/beaconing.hpp"
#include "panagree/pan/segment.hpp"
#include "panagree/paths/enumerator.hpp"
#include "panagree/topology/compiled.hpp"

namespace panagree::pan {

/// An authorized GRC-violating crossing created by an interconnection
/// agreement: at AS `at`, traffic arriving from `from` may be forwarded to
/// `to` even though neither is a customer of `at`. If `allowed_sources` is
/// non-empty, only paths originating at one of those ASes may use the
/// crossing (§III-B3: parties extend agreement paths to their customers
/// only).
struct Crossing {
  AsId at = topology::kInvalidAs;
  AsId from = topology::kInvalidAs;
  AsId to = topology::kInvalidAs;
  std::set<AsId> allowed_sources;

  friend auto operator<=>(const Crossing&, const Crossing&) = default;
};

/// Registry of authorized crossings (populated from concluded agreements).
class CrossingRegistry {
 public:
  void add(Crossing crossing);

  /// True iff traffic of `source` may cross at `at` from `from` to `to`.
  [[nodiscard]] bool allows(AsId source, AsId at, AsId from, AsId to) const;

  [[nodiscard]] const std::vector<Crossing>& crossings() const {
    return crossings_;
  }

 private:
  std::vector<Crossing> crossings_;
};

/// Step policy for the shared engine: valley-free steps, plus any step
/// authorized by a crossing registry (which re-opens no climbing right -
/// after a crossing the walk descends). Used by
/// PathConstructor::enumerate_authorized.
class CrossingStep {
 public:
  using State = paths::WalkPhase;

  explicit CrossingStep(const CrossingRegistry* crossings)
      : crossings_(crossings) {}

  [[nodiscard]] State initial_state() const {
    return paths::WalkPhase::kClimbing;
  }

  [[nodiscard]] bool allowed(const paths::Step& step, State state,
                             State& next_state) const {
    if (paths::ValleyFreeStep{}.allowed(step, state, next_state)) {
      return true;
    }
    if (crossings_ != nullptr && step.prev != topology::kInvalidAs &&
        crossings_->allows(step.source, step.cur, step.prev, step.next)) {
      next_state = paths::WalkPhase::kDescending;
      return true;
    }
    return false;
  }

  /// A crossing may lead to a neighbor of any role in either phase, so
  /// every row is walked whole.
  [[nodiscard]] topology::RoleMask admissible_roles(State /*state*/) const {
    return topology::kAllRoles;
  }

 private:
  const CrossingRegistry* crossings_;
};

struct PathConstructionOptions {
  std::size_t max_paths = 32;
  std::size_t max_path_length = 10;
};

/// Constructs end-to-end AS paths from beacon segments.
class PathConstructor {
 public:
  PathConstructor(const Graph& graph, const BeaconService& beacons,
                  PathConstructionOptions options = {});

  /// Candidate simple AS paths src -> dst, shortest first:
  ///  * up(src) joined with down(dst) at a shared AS (including core),
  ///  * peering shortcut between an AS on up(src) and one on down(dst),
  ///  * agreement crossings from `crossings` (GRC-violating shortcuts).
  [[nodiscard]] std::vector<std::vector<AsId>> construct(
      AsId src, AsId dst, const CrossingRegistry* crossings = nullptr) const;

  /// Exhaustive DFS over the shared engine: all simple paths src -> dst of
  /// at most `max_len` ASes (0 = the constructor's max_path_length) that
  /// are valley-free except for authorized crossings, sorted
  /// shortest-first. With the default bound, every construct() candidate
  /// is a member (segment joins are valley-free walks; crossing splices
  /// are crossing steps), so this is the ground-truth superset for tests
  /// and small-topology studies. Cost is exponential in max_len.
  [[nodiscard]] std::vector<std::vector<AsId>> enumerate_authorized(
      AsId src, AsId dst, const CrossingRegistry* crossings = nullptr,
      std::size_t max_len = 0) const;

 private:
  void add_candidate(std::vector<std::vector<AsId>>& out,
                     std::vector<AsId> path) const;

  // No PathEnumerator member: it holds a pointer to compiled_, which would
  // dangle under the implicit copy/move; methods build one locally (free).
  topology::CompiledTopology compiled_;
  const BeaconService* beacons_;
  PathConstructionOptions options_;
};

/// True iff the path visits no AS twice.
[[nodiscard]] bool is_simple_path(const std::vector<AsId>& path);

}  // namespace panagree::pan
