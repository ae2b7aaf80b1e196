// Per-scenario aggregation: what does one agreement deployment buy?
//
// The sweep's canonical per-source result is the pair of §VI length-3 path
// sets (GRC and MA) enumerated over the overlaid topology - the same
// policies diversity::Length3Analyzer runs on the base snapshot, consulted
// through the Overlay - held as a SourcePathSet: the source once, one
// run per (source, mid) hop, and the destinations gap-coded in one byte
// stream (one byte for almost every path).
// MetricsAggregator folds a scenario's per-source results into
// operator-facing aggregates, walking each set's hop runs: per run it
// scatters the mid's overlaid adjacency row into a per-AS link-id array,
// so the s-m link and every m-d link cost one load each and no path
// searches an adjacency row; the s-m facility legs are looked up once per
// run:
//
//   * path diversity - total GRC/MA path counts and reachable (src, dst)
//     pairs (diversity/ semantics);
//   * geodistance - the mean best length-3 geodistance over reachable
//     pairs (§VI-B). Hops over base links read the facility legs of
//     GeodistanceModel's per-link table; hops over *added* links (which
//     carry no stored facilities yet) estimate candidate facilities from
//     the endpoint AS PoP sets with the same rule the generator assigns
//     real links (topology::estimate_link_facilities), so a what-if
//     deployment is priced like the recompiled link would be - the
//     endpoint-centroid great-circle legs remain only as a last resort
//     for ASes without PoPs;
//   * transit fees - unit demand per reachable pair routed over its best
//     path, each provider-customer hop charged by econ::Economy. Per-unit
//     evaluation is exact for the linear default economy; added links the
//     economy does not know are settlement-free, and without an economy
//     every hop is. Base links read a per-link unit-fee table; added links
//     are priced on demand.
//
// The aggregator snapshots the base graph's geodata and the economy's
// link prices at construction: changing either afterwards does not reach
// an existing aggregator.
//
// Scenario ranking is the difference against the baseline aggregate
// (subtract()), turned into a scalar by operator_utility().
//
// Every scorer (the serving engine's what-ifs, the optimizer, the failure
// sweep, panagree-sweep) keeps its state's per-source slices in a
// SliceSum and splices in only the delta's dirty sources.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "panagree/diversity/geodistance.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/scenario/overlay.hpp"
#include "panagree/scenario/sweep.hpp"

namespace panagree::scenario {

/// The per-source unit of the canonical sweep: every GRC length-3 path of
/// the source plus every MA-only path, in engine enumeration order (so
/// equality is byte-equality of a full recompute).
///
/// Storage is run-length over hops and gap-coded within a hop: the source
/// once, one Run {mid, end, byte_end} per (source, mid) hop, and one byte
/// stream of destinations. Within a run, a destination 1-255 above the
/// previous one (above 0 at the run's start) is that one byte; any other
/// destination is a 0 byte followed by its 4-byte id. Enumeration walks a
/// hop's destinations along the mid's CSR row, whose role groups are each
/// sorted by AS id, so on the 3000-AS fixture 99.3% of them take one
/// byte: ~1.06 bytes a path, where a u32 took 4 and a {src, mid, dst}
/// triple 12. A run starts whenever the mid changes and at the GRC/MA
/// boundary, and any destination order encodes (descending and repeated
/// ones take the 5-byte form), so correctness does not depend on
/// enumeration order. grc() and ma() are read-only ranges yielding
/// diversity::Length3Path values, decoded as they walk. SweepRunner caches
/// one of these per source: by value in the optimizer's search states,
/// which copy it with every clone, and behind a SharedPathSet in the
/// serving engine, whose states share every set a rebase leaves clean.
class SourcePathSet {
  /// One hop: the set's paths from the previous run's end up to `end` all
  /// go through `mid`, and their destinations are coded in the bytes from
  /// the previous run's byte_end up to `byte_end`.
  struct Run {
    AsId mid = topology::kInvalidAs;
    std::uint32_t end = 0;
    std::uint32_t byte_end = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };

  /// The first byte of a destination that does not fit one byte; its
  /// 4-byte id follows.
  static constexpr std::uint8_t kEscape = 0;

  /// A position in the byte stream and the destination coded there,
  /// decoded once on arrival (nothing is decoded at `end`).
  struct Cursor {
    const std::uint8_t* at = nullptr;
    const std::uint8_t* end = nullptr;
    AsId dst = 0;
    /// Bytes of the code at `at`. Set on the branch that decodes, so the
    /// next position waits on a predicted branch, not on the loaded byte.
    std::uint32_t width = 0;

    /// Decodes the destination at `at`, whose predecessor in its run is
    /// `prev` (0 at the run's start).
    void load(AsId prev) {
      if (at == end) {
        return;
      }
      if (*at != kEscape) {
        dst = prev + *at;
        width = 1;
      } else {
        std::memcpy(&dst, at + 1, sizeof(dst));
        width = 1 + sizeof(AsId);
      }
    }
    /// Moves to the next destination's code.
    void skip() { at += width; }
  };

 public:
  /// Read-only range over the destinations of one hop run, decoded as it
  /// walks. Valid while the set is alive and unmodified.
  class Destinations {
   public:
    class iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = AsId;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      [[nodiscard]] AsId operator*() const { return cursor_.dst; }
      iterator& operator++() {
        cursor_.skip();
        cursor_.load(cursor_.dst);
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      /// Iterators of one range compare by position.
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.cursor_.at == b.cursor_.at;
      }

     private:
      friend class Destinations;
      iterator(const std::uint8_t* at, const std::uint8_t* end)
          : cursor_{at, end} {
        cursor_.load(0);
      }

      Cursor cursor_;
    };

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] iterator begin() const { return {begin_, end_}; }
    [[nodiscard]] iterator end() const { return {end_, end_}; }

   private:
    friend class SourcePathSet;
    Destinations(const std::uint8_t* begin, const std::uint8_t* end,
                 std::uint32_t size)
        : begin_(begin), end_(end), size_(size) {}

    const std::uint8_t* begin_;
    const std::uint8_t* end_;
    std::uint32_t size_;
  };

  /// Read-only range over consecutive runs of one set (grc() or ma()),
  /// decoded as it walks. Valid while the set is alive and unmodified.
  class Paths {
   public:
    class iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = diversity::Length3Path;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      [[nodiscard]] diversity::Length3Path operator*() const {
        return {source_, mid_, cursor_.dst};
      }
      iterator& operator++() {
        cursor_.skip();
        if (cursor_.at != run_end_) {
          cursor_.load(cursor_.dst);
        } else {
          ++run_;
          enter_run();
        }
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      /// Iterators of one range compare by position.
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.cursor_.at == b.cursor_.at;
      }

     private:
      friend class Paths;
      iterator(AsId source, const Run* run, const std::uint8_t* bytes,
               std::uint32_t at, std::uint32_t end)
          : source_(source),
            run_(run),
            bytes_(bytes),
            cursor_{bytes + at, bytes + end} {
        enter_run();
      }
      /// Takes the mid and byte end of run_, whose first code is at the
      /// cursor (nothing at the range's end).
      void enter_run() {
        if (cursor_.at != cursor_.end) {
          mid_ = run_->mid;
          run_end_ = bytes_ + run_->byte_end;
          cursor_.load(0);
        }
      }

      AsId source_ = topology::kInvalidAs;
      /// The run of the current path, and copies of its mid and byte
      /// end: a caller's char stores (the wire writer's) would otherwise
      /// force reloading them from the run for every path.
      const Run* run_ = nullptr;
      AsId mid_ = topology::kInvalidAs;
      const std::uint8_t* run_end_ = nullptr;
      const std::uint8_t* bytes_ = nullptr;
      Cursor cursor_;
    };

    [[nodiscard]] std::size_t size() const {
      return runs_.empty() ? 0 : runs_.back().end - start_.end;
    }
    [[nodiscard]] iterator begin() const {
      return {source_, runs_.data(), bytes_, start_.byte_end, byte_end()};
    }
    [[nodiscard]] iterator end() const {
      return {source_, runs_.data() + runs_.size(), bytes_, byte_end(),
              byte_end()};
    }

    /// Calls `fn(mid, dsts)` once per hop run, in order, with the run's
    /// destinations as a Destinations range.
    template <typename Fn>
    void for_each_run(Fn&& fn) const {
      Run previous = start_;
      for (const Run& run : runs_) {
        fn(run.mid, Destinations(bytes_ + previous.byte_end,
                                 bytes_ + run.byte_end,
                                 run.end - previous.end));
        previous = run;
      }
    }

   private:
    friend class SourcePathSet;
    Paths(AsId source, std::span<const Run> runs, const std::uint8_t* bytes,
          Run start)
        : source_(source), runs_(runs), bytes_(bytes), start_(start) {}

    [[nodiscard]] std::uint32_t byte_end() const {
      return runs_.empty() ? start_.byte_end : runs_.back().byte_end;
    }

    AsId source_;
    std::span<const Run> runs_;
    const std::uint8_t* bytes_;
    /// The ends of the run before runs_ (zero before the first run).
    Run start_;
  };

  /// Appends a GRC path. All GRC paths must be added before any MA path,
  /// and all paths of a set must share one source.
  void add_grc(const diversity::Length3Path& path) {
    PANAGREE_ASSERT(grc_runs_ == runs_.size());
    append(path, /*new_run=*/false);
    grc_runs_ = static_cast<std::uint32_t>(runs_.size());
  }

  /// Appends an MA-only path. The first one opens a run even when it
  /// repeats the last GRC mid.
  void add_ma(const diversity::Length3Path& path) {
    append(path, /*new_run=*/runs_.size() == grc_runs_);
  }

  /// The set's source; kInvalidAs while the set is empty.
  [[nodiscard]] AsId source() const { return source_; }

  [[nodiscard]] Paths grc() const {
    return {source_, std::span<const Run>(runs_).first(grc_runs_),
            bytes_.data(), Run{}};
  }
  [[nodiscard]] Paths ma() const {
    return {source_, std::span<const Run>(runs_).subspan(grc_runs_),
            bytes_.data(), grc_runs_ == 0 ? Run{} : runs_[grc_runs_ - 1]};
  }

  /// Heap bytes held, by capacity.
  [[nodiscard]] std::size_t heap_bytes() const {
    return runs_.capacity() * sizeof(Run) + bytes_.capacity();
  }

  /// Releases the arrays' growth slack (enumeration calls it, so cached
  /// sets hold exact-size arrays).
  void shrink_to_fit() {
    runs_.shrink_to_fit();
    bytes_.shrink_to_fit();
  }

  /// Equal iff both sets hold the same GRC and the same MA path sequence:
  /// the coding is a function of the sequences.
  friend bool operator==(const SourcePathSet&,
                         const SourcePathSet&) = default;

 private:
  void append(const diversity::Length3Path& path, bool new_run) {
    if (runs_.empty()) {
      source_ = path.src;
    }
    util::require(path.src == source_,
                  "SourcePathSet: paths of one set must share a source");
    const std::size_t at = bytes_.size();
    util::require(at <= std::numeric_limits<std::uint32_t>::max() -
                            (1 + sizeof(AsId)),
                  "SourcePathSet: too many destination bytes for u32 "
                  "run ends");
    AsId prev = last_dst_;
    if (new_run || runs_.empty() || runs_.back().mid != path.mid) {
      runs_.push_back({path.mid, runs_.empty() ? 0 : runs_.back().end,
                       static_cast<std::uint32_t>(at)});
      prev = 0;
    }
    last_dst_ = path.dst;
    const bool one_byte = path.dst > prev && path.dst - prev <= 0xff;
    Run& run = runs_.back();
    ++run.end;
    run.byte_end =
        static_cast<std::uint32_t>(at + (one_byte ? 1 : 1 + sizeof(AsId)));
    // The byte stores come last: a byte store may alias any object, so
    // the compiler reloads whatever is read after one.
    if (one_byte) {
      bytes_.push_back(static_cast<std::uint8_t>(path.dst - prev));
    } else {
      std::uint8_t coded[1 + sizeof(AsId)] = {kEscape};
      std::memcpy(coded + 1, &path.dst, sizeof(AsId));
      bytes_.insert(bytes_.end(), std::begin(coded), std::end(coded));
    }
  }

  AsId source_ = topology::kInvalidAs;
  /// runs_[0, grc_runs_) are GRC hops, the rest MA.
  std::uint32_t grc_runs_ = 0;
  /// The destination of the last appended path (the next one's gap base
  /// unless it opens a run).
  AsId last_dst_ = 0;
  std::vector<Run> runs_;
  std::vector<std::uint8_t> bytes_;
};

/// A cached SourcePathSet under shared immutable ownership: copying a
/// SweepRunner<SharedPathSet> copies one pointer per source, not the sets.
using SharedPathSet = std::shared_ptr<const SourcePathSet>;

/// Enumerates the §VI length-3 path sets of `src` over the overlaid
/// topology. On an empty overlay this reproduces
/// diversity::Length3Analyzer::{grc_paths, ma_paths} exactly.
[[nodiscard]] SourcePathSet enumerate_length3(const Overlay& overlay,
                                              AsId src);

/// The sweep invalidation radius that is *exact* for enumerate_length3:
/// a length-3 path S-M-D only uses links whose nearer endpoint is S
/// (distance 0) or M (distance 1), and the MA policy's off-path role
/// checks only ever involve the (S, D) pair - endpoint S, distance 0. So
/// a source farther than 1 hop from every changed-link endpoint keeps its
/// baseline result verbatim (scenario_test proves byte-identity at this
/// radius across randomized deltas). The generic bound for a max_len-AS
/// walk is max_len - 2 for on-path links, +1 if a policy consults role
/// pairs not anchored at the source.
inline constexpr std::size_t kLength3DirtyRadius = 1;

/// The additive per-source slice of a scenario aggregate: ScenarioMetrics
/// minus the final mean division, so contributions of individual sources
/// can be cached, swapped, and re-summed without touching the others -
/// the Slice of a SliceSum. This is what lets a what-if re-score only its
/// dirty sources, and a deployment optimizer keep one evaluated
/// candidate's dirty-source slices and re-score the candidate in
/// O(sources) additions after the surrounding program grew elsewhere.
struct SourceContribution {
  std::size_t grc_paths = 0;
  std::size_t ma_paths = 0;
  std::size_t grc_pairs = 0;
  std::size_t ma_extra_pairs = 0;
  /// Sum of best-path geodistances of this source's reachable pairs with
  /// geodata, and how many pairs contributed.
  double km_sum = 0.0;
  std::size_t km_pairs = 0;
  double transit_fees = 0.0;

  SourceContribution& operator+=(const SourceContribution& other) {
    grc_paths += other.grc_paths;
    ma_paths += other.ma_paths;
    grc_pairs += other.grc_pairs;
    ma_extra_pairs += other.ma_extra_pairs;
    km_sum += other.km_sum;
    km_pairs += other.km_pairs;
    transit_fees += other.transit_fees;
    return *this;
  }

  friend bool operator==(const SourceContribution&,
                         const SourceContribution&) = default;
};

/// Aggregates of one scenario over the analyzed sources.
struct ScenarioMetrics {
  std::size_t grc_paths = 0;
  std::size_t ma_paths = 0;
  /// (src, dst) pairs with at least one GRC path.
  std::size_t grc_pairs = 0;
  /// Additional (src, dst) pairs reachable only via MA paths.
  std::size_t ma_extra_pairs = 0;
  /// Mean best-path geodistance over reachable pairs (0 without geodata).
  double mean_best_geodistance_km = 0.0;
  /// Aggregate transit fees of unit demand per reachable pair.
  double transit_fees = 0.0;
};

/// Folds a summed SourceContribution into the operator-facing aggregate
/// (the mean-geodistance division happens here, once).
[[nodiscard]] ScenarioMetrics finalize(const SourceContribution& total);

/// The §VI diversity counters of one scenario stripped to the additive
/// integer core (no geodistance or fee folds) - the per-failure-set unit
/// of the k-failure headline metric, cheap enough to recompute once per
/// enumerated failure set.
struct DiversityCounts {
  std::size_t grc_paths = 0;
  std::size_t ma_paths = 0;
  std::size_t grc_pairs = 0;
  std::size_t ma_extra_pairs = 0;

  [[nodiscard]] std::size_t total_paths() const {
    return grc_paths + ma_paths;
  }
  [[nodiscard]] std::size_t reachable_pairs() const {
    return grc_pairs + ma_extra_pairs;
  }

  DiversityCounts& operator+=(const DiversityCounts& other) {
    grc_paths += other.grc_paths;
    ma_paths += other.ma_paths;
    grc_pairs += other.grc_pairs;
    ma_extra_pairs += other.ma_extra_pairs;
    return *this;
  }

  friend bool operator==(const DiversityCounts&,
                         const DiversityCounts&) = default;
};

/// The DiversityCounts of one source's path sets. Pair semantics match
/// MetricsAggregator::aggregate: a destination with any GRC path is a
/// grc_pair, one reached only by MA paths an ma_extra_pair.
[[nodiscard]] DiversityCounts count_diversity(const SourcePathSet& result);

/// The per-source counts of `results`, summed.
[[nodiscard]] DiversityCounts count_diversity(
    std::span<const SourcePathSet* const> results);

/// Per-source additive slices in sources() order (SourceContribution or
/// DiversityCounts) and their total, summed in that order from Slice{}.
/// spliced() scores a delta from its dirty sources' fresh slices and
/// adopt() commits them, both adding in slot order: a total is
/// bit-identical to a SliceSum built from the spliced vector.
template <typename Slice>
class SliceSum {
 public:
  SliceSum() = default;
  explicit SliceSum(std::vector<Slice> slices) : slices_(std::move(slices)) {
    for (const Slice& slice : slices_) {
      total_ += slice;
    }
  }

  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }
  [[nodiscard]] const Slice& total() const { return total_; }

  /// The total with fresh[k] in place of slot positions[k]. `positions`
  /// must be strictly ascending and in range, one per fresh slice
  /// (util::PreconditionError otherwise).
  [[nodiscard]] Slice spliced(std::span<const std::size_t> positions,
                              std::span<const Slice> fresh) const {
    util::require(positions.size() == fresh.size(),
                  "SliceSum: positions/fresh mismatch");
    Slice total{};
    std::size_t next = 0;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      if (next < positions.size() && positions[next] == i) {
        total += fresh[next++];
      } else {
        total += slices_[i];
      }
    }
    // The walk consumes every position iff the list is strictly
    // ascending and in range.
    util::require(next == positions.size(), "SliceSum: bad position list");
    return total;
  }

  /// Overwrites slot positions[k] with fresh[k] and re-sums the total.
  /// Checked like spliced() before any slot moves: a rejected call
  /// changes nothing.
  void adopt(std::span<const std::size_t> positions,
             std::span<const Slice> fresh) {
    total_ = spliced(positions, fresh);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      slices_[positions[k]] = fresh[k];
    }
  }

 private:
  std::vector<Slice> slices_;
  Slice total_{};
};

/// Diversity surviving k link failures: the §VI GRC/MA counts
/// re-evaluated under every enumerated (or budget-sampled) k-failure set,
/// folded to the worst case and the mean - "how much of the path-aware
/// agreement value is still there when links go down", the headline
/// what-if metric of the dynamics layer (scenario::failure_diversity
/// computes it through the incremental sweep machinery).
struct FailureDiversity {
  std::size_t sets = 0;       ///< failure sets evaluated
  /// Counters of the worst failure set (fewest surviving GRC+MA paths,
  /// ties to the lower set index).
  DiversityCounts min;
  std::size_t worst_set = 0;  ///< index of that set in the evaluated list
  double mean_paths = 0.0;    ///< mean surviving GRC+MA paths
  double mean_pairs = 0.0;    ///< mean surviving reachable pairs
};

/// Elementwise scenario - baseline (size_t fields as signed deltas via
/// doubles would lose exactness; kept as a dedicated type instead).
struct MetricsDelta {
  double paths = 0.0;
  double pairs = 0.0;
  double mean_best_geodistance_km = 0.0;
  double transit_fees = 0.0;
};

[[nodiscard]] MetricsDelta subtract(const ScenarioMetrics& scenario,
                                    const ScenarioMetrics& baseline);

/// A scalar "is this deployment worth it" score: fees saved plus a reward
/// per newly reachable pair minus a penalty per km of mean-geodistance
/// regression. The weights are knobs, not doctrine.
struct UtilityWeights {
  double per_new_pair = 0.5;
  double per_km_regression = 0.02;
};

[[nodiscard]] double operator_utility(const MetricsDelta& delta,
                                      const UtilityWeights& weights = {});

class ScratchPool;

class MetricsAggregator {
 public:
  /// `world` == nullptr disables the geodistance aggregate (and best paths
  /// fall back to first-enumerated); `economy` == nullptr makes every hop
  /// settlement-free (transit fees read 0). All referenced objects must
  /// outlive the aggregator, which snapshots the graph's geodata (AS
  /// centroids, has_geo flags and link facilities) and the unit price of
  /// every base provider-customer link into its lookup tables.
  MetricsAggregator(const CompiledTopology& base, const geo::World* world,
                    const econ::Economy* economy);

  /// Folds the per-source results of one scenario (results[i] belongs to
  /// sources[i], the shape SweepRunner produces). Thread-safe per call.
  /// The full-refold oracle of what the scorers splice.
  [[nodiscard]] ScenarioMetrics aggregate(
      const Overlay& overlay, const std::vector<AsId>& sources,
      const std::vector<SourcePathSet>& results) const;

  /// Reusable working memory of contribution(): dense per-AS best-path
  /// slots (with a bitmap of the live ones, folded in ascending
  /// destination order), the current hop run's scattered mid row (one
  /// stamped link id per AS) and the facility legs of overlay-added
  /// links, memoized per added link. One Scratch serves any number of
  /// contribution() calls, over any overlays (the memo is dropped when
  /// the overlay changes, and each time a ScratchPool hands the Scratch
  /// out); give each concurrent caller its own.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class MetricsAggregator;
    friend class ScratchPool;
    /// A destination's best path so far, as its two overlay link ids
    /// (s-m, m-d): all the fee fold needs.
    struct Best {
      std::uint32_t l1 = 0;
      std::uint32_t l2 = 0;
      double km = std::numeric_limits<double>::infinity();
      bool has_km = false;
      bool grc_reachable = false;
    };
    /// The mid-x link id of the current run, valid iff `stamp` equals
    /// run_stamp_.
    struct LinkOf {
      std::uint32_t stamp = 0;
      std::uint32_t link = 0;
    };
    struct AddedLegs {
      LinkChange link;
      std::vector<diversity::FacilityLeg> legs;
    };
    const Overlay* overlay_ = nullptr;
    /// slots_[d] holds destination d's best path of the current source
    /// iff bit d of live_ is set.
    std::vector<Best> slots_;
    std::vector<std::uint64_t> live_;
    /// link_of_[x] holds the link from the current run's mid to x; each
    /// run bumps run_stamp_ instead of clearing the array.
    std::vector<LinkOf> link_of_;
    std::uint32_t run_stamp_ = 0;
    /// Legs of overlay-added links, keyed by the link itself (so an entry
    /// can never describe another link). A deque: spans into the legs of
    /// one entry stay valid while later entries are appended.
    std::deque<AddedLegs> added_legs_;
  };

  /// The additive slice one source's path sets contribute to the
  /// scenario aggregate; aggregate() is exactly finalize() of the sum of
  /// these in source order. Thread-safe per call with distinct Scratch
  /// objects, like aggregate().
  [[nodiscard]] SourceContribution contribution(const Overlay& overlay,
                                                const SourcePathSet& result,
                                                Scratch& scratch) const;

  /// Convenience overload with throwaway working memory; use the Scratch
  /// overload when folding many sources of the same scenario.
  [[nodiscard]] SourceContribution contribution(
      const Overlay& overlay, const SourcePathSet& result) const {
    Scratch scratch;
    return contribution(overlay, result, scratch);
  }

  /// The contributions of a state's per-source path sets over its
  /// `overlay`, computed on up to `threads` workers. `Result` is the
  /// runner's cached type: SourcePathSet or SharedPathSet.
  template <typename Result>
  [[nodiscard]] SliceSum<SourceContribution> contributions(
      const Overlay& overlay, const std::vector<Result>& results,
      std::size_t threads) const;

  /// The total contribution of `delta` on top of `runner`'s state, whose
  /// contributions are `state`: the delta's dirty sources, enumerated and
  /// contributed on up to `threads` workers with Scratches borrowed from
  /// `pool` (a pool of this aggregator), spliced into `state`. Its
  /// finalize() is, to the bit, aggregate() of a full recompute. `Result`
  /// is SourcePathSet or SharedPathSet.
  template <typename Result>
  [[nodiscard]] SourceContribution whatif_total(
      const SweepRunner<Result>& runner,
      const SliceSum<SourceContribution>& state, const Delta& delta,
      ScratchPool& pool, std::size_t threads,
      SweepStats* stats = nullptr) const;

  /// Geodistance of s-m-d over the overlay. Hops over overlay-added links
  /// use facilities estimated from the endpoint PoP sets (see the header
  /// comment); only ASes without PoPs fall back to endpoint-centroid
  /// legs. Requires geodata (world != nullptr).
  [[nodiscard]] double path_geodistance_km(const Overlay& overlay, AsId s,
                                           AsId m, AsId d) const;

  /// Transit fees of routing `volume` over `path` (>= 2 linked ASes)
  /// under the overlay: every provider-customer hop is charged by the
  /// economy's pricing for that link, whichever direction the walk
  /// crosses it; peering and unknown (overlay-added) links are
  /// settlement-free, and every hop is without an economy. The single fee
  /// convention shared by aggregate() (which prices unit demand through
  /// the per-link table, to the same doubles) and the sweep benches.
  [[nodiscard]] double path_fee(const Overlay& overlay,
                                std::span<const AsId> path,
                                double volume) const;

 private:
  /// Facility legs of hop `link` seen from its endpoint `from`: the
  /// GeodistanceModel table row for base links, the Scratch-memoized
  /// estimate for overlay-added ones.
  [[nodiscard]] diversity::HopLegs hop_legs(const Overlay& overlay,
                                            std::uint32_t link, AsId from,
                                            Scratch& scratch) const;

  /// Geodistance of `path` whose hops are the links `l1` (s-m, legs
  /// `head` seen from s) and `l2` (m-d).
  [[nodiscard]] double path_km(const Overlay& overlay,
                               const diversity::Length3Path& path,
                               std::uint32_t l1,
                               const diversity::HopLegs& head,
                               std::uint32_t l2, Scratch& scratch) const;

  /// path_fee of one unit over the overlay link `link`: the table entry
  /// of a base link; an added provider-customer link is priced by the
  /// economy for its (provider, customer) pair, so a base pair re-added
  /// in the same direction keeps its price and any other added link is
  /// settlement-free.
  [[nodiscard]] double unit_fee(const Overlay& overlay,
                                std::uint32_t link) const;

  const CompiledTopology* base_;
  const geo::World* world_;
  const econ::Economy* economy_;
  std::optional<diversity::GeodistanceModel> geodesy_;
  /// has_geo of every base AS, one byte each (the per-path check).
  std::vector<std::uint8_t> has_geo_;
  /// Per base link: the economy's price of one unit over a
  /// provider-customer link, 0 for peering links (and without an economy).
  std::vector<double> unit_fees_;
  /// Facility-count cap for estimating overlay-added links: the maximum
  /// stored on any base link (so a what-if hop minimizes over no more
  /// facilities than its recompiled version would, whatever
  /// max_facilities_per_link the topology was built with); the generator
  /// default when the base graph stores none.
  std::size_t max_estimated_facilities_ = 3;
};

/// The Scratches of one aggregator's folds. A worker borrows one per
/// source and hands it back, so the pool holds at most one per
/// concurrent borrower (each holds a slot per AS), and all of them are
/// freed with the pool. A pool may outlive any number of folds - the
/// serving engine keeps one for its life - because every Scratch drops
/// its added-link memo when it is handed out.
class ScratchPool {
 public:
  explicit ScratchPool(const MetricsAggregator& aggregator)
      : aggregator_(&aggregator) {}

  [[nodiscard]] const MetricsAggregator& aggregator() const {
    return *aggregator_;
  }

  /// MetricsAggregator::contribution on a borrowed Scratch; callable
  /// concurrently.
  [[nodiscard]] SourceContribution contribution(const Overlay& overlay,
                                                const SourcePathSet& result);

 private:
  const MetricsAggregator* aggregator_;
  std::mutex mutex_;
  std::deque<MetricsAggregator::Scratch> all_;  // stable addresses
  std::vector<MetricsAggregator::Scratch*> idle_;
};

}  // namespace panagree::scenario
