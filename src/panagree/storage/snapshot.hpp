// Versioned binary topology snapshots: compile once, mmap everywhere.
//
// Every tool and bench in this repo used to re-parse (or re-generate) and
// re-embed its topology on startup - at CAIDA scale (~70k ASes) that
// startup dwarfs many analyses. The storage layer splits the pipeline:
//
//   panagree-compile: as-rel2 (or generator) -> embed -> CSR -> .pansnap
//   MappedSnapshot::open: .pansnap -> ready-to-analyze topology, with the
//     CSR arrays served zero-copy straight out of the mapped file.
//
// The loaded view is byte-identical to compiling the graph in-process:
// same AS/link ids, same CSR row order, same entry bytes (property-tested
// in tests/storage_test.cpp), so analyses cannot tell the difference. The
// Graph and geo::World objects are materialized at load time (they hold
// strings and per-node vectors and cannot be borrowed), which is the cheap
// part; the embed step's RNG-driven geo assignment and facility estimation
// - the expensive part - is paid once at compile time.
//
// See format.hpp for the on-disk layout and the versioning policy.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "panagree/geo/region.hpp"
#include "panagree/storage/format.hpp"
#include "panagree/storage/mmap_file.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::storage {

using topology::AsId;

/// Writes `topo` (graph + world + tier lists) and its compiled CSR
/// snapshot to `path` as a version-1 .pansnap. `compiled` must be a
/// compilation of `topo.graph`. The file is written to a temporary sibling
/// and renamed into place; throws SnapshotError on I/O failure and
/// util::PreconditionError on unserializable input (e.g. city ids beyond
/// 32 bits).
void write_snapshot(const std::string& path,
                    const topology::GeneratedTopology& topo,
                    const topology::CompiledTopology& compiled);

/// What open() asked the kernel about the mapping's access pattern, and
/// whether the kernel accepted it: a WILLNEED prefetch of the CSR
/// sections (the arrays every analysis walks immediately).
struct MmapAdviceReport {
  bool willneed_applied = false;

  /// One-line human summary, e.g. "willneed(csr)=applied"; printed by
  /// panagree-compile's verify output.
  [[nodiscard]] std::string describe() const;
};

/// A loaded .pansnap: owns the mapping plus the materialized Graph/World
/// and exposes the CompiledTopology as a zero-copy view over the mapped
/// CSR arrays. Movable; all references remain valid across moves (the
/// restored state is heap-allocated).
class MappedSnapshot {
 public:
  /// Maps and validates `path`. Throws SnapshotError on bad magic, version
  /// mismatch, endianness mismatch, truncation, or inconsistent sections.
  [[nodiscard]] static MappedSnapshot open(const std::string& path);

  MappedSnapshot(MappedSnapshot&&) noexcept = default;
  MappedSnapshot& operator=(MappedSnapshot&&) noexcept = default;

  [[nodiscard]] const topology::Graph& graph() const { return state_->graph; }
  [[nodiscard]] const geo::World& world() const { return state_->world; }
  /// The CSR view over the mapped file - use instead of recompiling.
  [[nodiscard]] const topology::CompiledTopology& topology() const {
    return *state_->compiled;
  }
  [[nodiscard]] const std::vector<AsId>& tier1() const {
    return state_->tier1;
  }
  [[nodiscard]] const std::vector<AsId>& tier2() const {
    return state_->tier2;
  }
  [[nodiscard]] const std::vector<AsId>& tier3() const {
    return state_->tier3;
  }
  [[nodiscard]] std::size_t file_bytes() const { return file_.size(); }
  /// The access-pattern advice open() applied to the mapping.
  [[nodiscard]] const MmapAdviceReport& advice() const { return advice_; }

 private:
  struct State {
    topology::Graph graph;
    geo::World world;
    std::vector<AsId> tier1, tier2, tier3;
    /// Borrowed view into the mapped file; engaged by open() once graph
    /// and the mapped arrays are in place.
    std::optional<topology::CompiledTopology> compiled;
  };

  MappedSnapshot(MmapFile file, std::unique_ptr<State> state,
                 MmapAdviceReport advice)
      : file_(std::move(file)), state_(std::move(state)), advice_(advice) {}

  MmapFile file_;
  std::unique_ptr<State> state_;
  MmapAdviceReport advice_;
};

}  // namespace panagree::storage
