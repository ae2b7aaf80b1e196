// The unified path-enumeration engine.
//
// Every headline analysis of the paper reduces to walking the AS
// relationship graph under some step-admission rule:
//   * BGP policy compilation enumerates valley-free (Gao-Rexford) paths,
//     optionally extended by mutual-transit agreements (§II);
//   * the path-diversity analysis (§VI) enumerates length-3 GRC and
//     mutuality-agreement paths;
//   * PAN path construction splices segments across authorized
//     agreement crossings (§III-B).
//
// Historically each layer re-implemented its own DFS over Graph with
// per-hop hash lookups. PathEnumerator expresses all of them as *policies*
// over one DFS core running on a CompiledTopology (CSR) snapshot: a policy
// is a small value type that admits or rejects a candidate step and
// advances a policy-defined state (e.g. the climbing/descending phase of a
// valley-free walk). Policies are passed as template parameters, so the
// admission check inlines into the walk loop - no std::function per hop.
//
// A policy must provide:
//   using State = <copyable state type>;
//   State initial_state() const;
//   RoleMask admissible_roles(State state) const;
//   bool allowed(const Step& step, State state, State& next_state) const;
//
// admissible_roles returns a *superset* of the roles allowed() can ever
// admit in that state (allowed() stays the authority - the mask may not
// consult depth or off-path lookups). Every adjacency row is stored as
// providers | peers | customers, so the mask selects whole row groups:
// the DFS walks only the admitted groups (the view's for_each_entry(as,
// roles, fn)) and offers each of their entries to allowed(). A policy
// that returns kAllRoles walks every row whole; any superset mask
// enumerates the same paths in the same order.
//
// The sink invoked for every emitted path returns bool: `true` to keep
// extending the path, `false` to treat it as terminal (e.g. the
// destination was reached).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "panagree/topology/compiled.hpp"

namespace panagree::paths {

using topology::AsId;
using topology::CompiledTopology;
using topology::kAllRoles;
using topology::kCustomerBit;
using topology::kPeerBit;
using topology::kProviderBit;
using topology::NeighborRole;
using topology::RoleMask;

/// A path is the visited AS sequence, source first.
using Path = std::vector<AsId>;

/// Phase of an (extended) valley-free walk.
enum class WalkPhase : std::uint8_t {
  kClimbing,    ///< still on customer->provider steps
  kDescending,  ///< crossed the plateau; only provider->customer steps left
};

/// One candidate extension offered to a policy: the walk stands at `cur`
/// (reached from `prev`; kInvalidAs on the first step) and considers the
/// neighbor `next`, whose role as seen from `cur` is `role`.
struct Step {
  AsId source = topology::kInvalidAs;
  AsId prev = topology::kInvalidAs;
  AsId cur = topology::kInvalidAs;
  AsId next = topology::kInvalidAs;
  NeighborRole role = NeighborRole::kPeer;
  /// ASes on the path before the step (>= 1).
  std::size_t depth = 0;
};

/// The Gao-Rexford valley-free rule: climb via providers, cross at most one
/// peering link, then only descend via customers.
struct ValleyFreeStep {
  using State = WalkPhase;
  [[nodiscard]] State initial_state() const { return WalkPhase::kClimbing; }
  [[nodiscard]] bool allowed(const Step& step, State state,
                             State& next_state) const {
    switch (step.role) {
      case NeighborRole::kProvider:
        if (state != WalkPhase::kClimbing) {
          return false;
        }
        next_state = WalkPhase::kClimbing;
        return true;
      case NeighborRole::kPeer:
        if (state != WalkPhase::kClimbing) {
          return false;
        }
        next_state = WalkPhase::kDescending;
        return true;
      case NeighborRole::kCustomer:
        next_state = WalkPhase::kDescending;
        return true;
    }
    return false;
  }

  /// Descending walks can only ever take customer steps; climbing admits
  /// everything.
  [[nodiscard]] RoleMask admissible_roles(State state) const {
    return state == WalkPhase::kClimbing ? kAllRoles : kCustomerBit;
  }
};

/// Valley-free extended by "mutual provider access" agreements (§II): a
/// peering step across an agreement link keeps the climbing right, so the
/// partner may hand the traffic to its own providers next.
class MutualTransitStep {
 public:
  using State = WalkPhase;

  explicit MutualTransitStep(std::vector<std::pair<AsId, AsId>> mutual)
      : mutual_(std::move(mutual)) {
    for (auto& [a, b] : mutual_) {
      if (a > b) {
        std::swap(a, b);
      }
    }
  }

  [[nodiscard]] State initial_state() const { return WalkPhase::kClimbing; }

  [[nodiscard]] bool allowed(const Step& step, State state,
                             State& next_state) const {
    if (step.role == NeighborRole::kPeer && state == WalkPhase::kClimbing &&
        is_mutual(step.cur, step.next)) {
      next_state = WalkPhase::kClimbing;
      return true;
    }
    return ValleyFreeStep{}.allowed(step, state, next_state);
  }

  /// Mutual-transit agreements only widen *peer* admission while
  /// climbing - a phase where peers are admissible anyway - so the mask
  /// is the valley-free one.
  [[nodiscard]] RoleMask admissible_roles(State state) const {
    return ValleyFreeStep{}.admissible_roles(state);
  }

 private:
  [[nodiscard]] bool is_mutual(AsId x, AsId y) const {
    const AsId lo = std::min(x, y);
    const AsId hi = std::max(x, y);
    for (const auto& [a, b] : mutual_) {
      if (a == lo && b == hi) {
        return true;
      }
    }
    return false;
  }

  std::vector<std::pair<AsId, AsId>> mutual_;
};

/// The length-3 mutuality-agreement rule of §VI. An AS S gains the path
/// S-P-Z either *directly* (P is a peer of S; their MA grants S the
/// providers and peers of P that are not customers of S) or *indirectly*
/// (P is a customer or peer of S; the MA between P and its peer Z grants Z
/// access to S unless S is a customer of Z, making S-P-Z usable from S's
/// end as well). Emitted (P, Z) pairs are unique by construction, matching
/// the (mid, dst) deduplication of the legacy analyzer.
///
/// Parameterized over the topology view (CompiledTopology or
/// scenario::Overlay) because the rule consults roles of AS pairs that are
/// not on the walked path - those lookups must see the same view the walk
/// runs on.
template <typename Topo>
class BasicMaLength3Step {
 public:
  enum class Via : std::uint8_t { kStart, kPeer, kCustomer };
  using State = Via;

  /// `include_indirect` = false restricts to the directly gained paths
  /// (the paper's MA* series).
  BasicMaLength3Step(const Topo& topo, bool include_indirect)
      : topo_(&topo), include_indirect_(include_indirect) {}

  [[nodiscard]] State initial_state() const { return Via::kStart; }

  [[nodiscard]] bool allowed(const Step& step, State state,
                             State& next_state) const {
    if (state == Via::kStart) {
      if (step.role == NeighborRole::kPeer) {
        next_state = Via::kPeer;
        return true;
      }
      if (include_indirect_ && step.role == NeighborRole::kCustomer) {
        next_state = Via::kCustomer;
        return true;
      }
      return false;
    }
    if (step.depth != 2) {
      return false;  // length-3 paths only
    }
    next_state = state;
    const AsId s = step.source;
    const AsId z = step.next;
    if (state == Via::kPeer) {
      // Direct grant: Z is a provider or peer of the mid AS, and not a
      // customer of S.
      const bool direct =
          (step.role == NeighborRole::kProvider ||
           step.role == NeighborRole::kPeer) &&
          topo_->role_of(s, z) != NeighborRole::kCustomer;
      if (direct) {
        return true;
      }
    }
    // Indirect grant: Z is a peer of the mid AS and S is not a customer
    // of Z.
    return include_indirect_ && step.role == NeighborRole::kPeer &&
           topo_->role_of(z, s) != NeighborRole::kCustomer;
  }

  /// Superset of what allowed() admits per state (the role tests above,
  /// without the depth/role_of refinements): first hops leave S via a
  /// peer (or a customer when indirect grants count); from a peer mid AS
  /// the grant targets providers and peers; from a customer mid AS only
  /// its peers.
  [[nodiscard]] RoleMask admissible_roles(State state) const {
    switch (state) {
      case Via::kStart:
        return include_indirect_
                   ? static_cast<RoleMask>(kPeerBit | kCustomerBit)
                   : kPeerBit;
      case Via::kPeer:
        return static_cast<RoleMask>(kProviderBit | kPeerBit);
      case Via::kCustomer:
        return kPeerBit;
    }
    return kAllRoles;
  }

 private:
  const Topo* topo_;
  bool include_indirect_;
};

using MaLength3Step = BasicMaLength3Step<CompiledTopology>;

/// The shared walk engine, parameterized over the topology view: any type
/// exposing num_ases(), for_each_entry(as, roles, fn) yielding the
/// CompiledTopology::Entry-shaped values of the admitted role groups in
/// CSR row order, and role_of (the snapshot itself, or a
/// scenario::Overlay splicing link deltas into that order). Stateless
/// apart from the view pointer; one instance can serve concurrent walks
/// from multiple threads.
template <typename Topo>
class BasicPathEnumerator {
 public:
  explicit BasicPathEnumerator(const Topo& topo) : topo_(&topo) {}

  [[nodiscard]] const Topo& topology() const { return *topo_; }

  /// Visits every simple policy-admitted path of >= 2 ASes starting at
  /// `src`, bounded by `max_len` ASes. `sink(path)` is invoked for each
  /// path in DFS order (CSR row order: providers, peers, customers, each
  /// ascending by id) and returns whether to keep extending that path.
  template <typename Policy, typename Sink>
  void visit_paths(AsId src, std::size_t max_len, const Policy& policy,
                   Sink&& sink) const {
    util::require(src < topo_->num_ases(),
                  "PathEnumerator: source out of range");
    if (max_len < 2) {
      return;
    }
    // Per-thread, epoch-stamped visited marks: an O(num_ases) allocation +
    // clear per walk would dominate per-source fan-outs on large graphs
    // (a stub AS yields a handful of paths but would pay a full-graph
    // clear). A mark is "on the current walk's path" iff it equals the
    // walk's epoch; stale marks from earlier walks never match. The DFS
    // saves and restores the previous mark per frame, so re-entrant walks
    // (a sink starting another walk) stay correct.
    thread_local std::vector<std::uint64_t> visited;
    thread_local std::uint64_t epoch = 0;
    if (visited.size() < topo_->num_ases()) {
      visited.resize(topo_->num_ases(), 0);
    }
    const std::uint64_t walk = ++epoch;
    const std::uint64_t saved_src = visited[src];
    visited[src] = walk;
    Path path;
    path.reserve(max_len);
    path.push_back(src);
    dfs(policy, sink, path, visited, walk, topology::kInvalidAs,
        policy.initial_state(), max_len);
    visited[src] = saved_src;
  }

  /// All simple policy-admitted paths src -> dst with at most `max_len`
  /// ASes. Paths are terminal at dst (a path never continues through the
  /// destination). Returns {{src}} when src == dst.
  template <typename Policy>
  [[nodiscard]] std::vector<Path> paths_between(AsId src, AsId dst,
                                                std::size_t max_len,
                                                const Policy& policy) const {
    util::require(dst < topo_->num_ases(),
                  "PathEnumerator: destination out of range");
    std::vector<Path> out;
    if (src == dst) {
      util::require(src < topo_->num_ases(),
                    "PathEnumerator: source out of range");
      out.push_back({src});
      return out;
    }
    visit_paths(src, max_len, policy, [&](const Path& path) {
      if (path.back() == dst) {
        out.push_back(path);
        return false;
      }
      return true;
    });
    return out;
  }

  /// True iff consecutive path elements are linked in the topology (role
  /// oblivious; the adjacency test PAN candidate validation needs).
  /// Phrased via role_of so it stays within the topology-view protocol
  /// (CompiledTopology and scenario::Overlay both implement it).
  [[nodiscard]] bool links_exist(const Path& path) const {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!topo_->role_of(path[i], path[i + 1]).has_value()) {
        return false;
      }
    }
    return true;
  }

 private:
  template <typename Policy, typename Sink>
  void dfs(const Policy& policy, Sink& sink, Path& path,
           std::vector<std::uint64_t>& visited, std::uint64_t walk,
           AsId prev, typename Policy::State state,
           std::size_t max_len) const {
    const AsId cur = path.back();
    const auto try_step = [&](const auto& entry) {
      if (visited[entry.neighbor] == walk) {
        return;
      }
      typename Policy::State next_state = state;
      const Step step{path.front(), prev,        cur,
                      entry.neighbor, entry.role, path.size()};
      if (!policy.allowed(step, state, next_state)) {
        return;
      }
      path.push_back(entry.neighbor);
      const bool extend = sink(static_cast<const Path&>(path));
      if (extend && path.size() < max_len) {
        const std::uint64_t saved = visited[entry.neighbor];
        visited[entry.neighbor] = walk;
        dfs(policy, sink, path, visited, walk, cur, next_state, max_len);
        visited[entry.neighbor] = saved;
      }
      path.pop_back();
    };
    topo_->for_each_entry(cur, policy.admissible_roles(state), try_step);
  }

  const Topo* topo_;
};

using PathEnumerator = BasicPathEnumerator<CompiledTopology>;

/// Validates a whole path against the valley-free rule using any role
/// lookup shaped like `role_of(x, y) -> std::optional<NeighborRole>`
/// (Graph or CompiledTopology). Single-AS and empty paths are trivially
/// valley-free; a hop without a link is not. The single source of truth
/// shared by the bgp layer's Graph-based validator and the snapshot one.
template <typename RoleFn>
[[nodiscard]] bool is_valley_free_walk(const Path& path, RoleFn&& role_of) {
  if (path.size() <= 1) {
    return true;
  }
  const ValleyFreeStep rule;
  WalkPhase phase = rule.initial_state();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::optional<NeighborRole> role = role_of(path[i], path[i + 1]);
    if (!role.has_value()) {
      return false;  // not even a link
    }
    const Step step{path.front(),
                    i == 0 ? topology::kInvalidAs : path[i - 1],
                    path[i],
                    path[i + 1],
                    *role,
                    i + 1};
    WalkPhase next_phase = phase;
    if (!rule.allowed(step, phase, next_phase)) {
      return false;
    }
    phase = next_phase;
  }
  return true;
}

/// True iff the role sequence of `path` in `topo` is admitted by the
/// valley-free rule.
[[nodiscard]] bool is_valley_free(const CompiledTopology& topo,
                                  const Path& path);

}  // namespace panagree::paths
