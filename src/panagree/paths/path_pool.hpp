// Interned path storage: one contiguous arena instead of a vector of
// vectors.
//
// At CAIDA scale (~70k ASes) the per-path std::vector representation does
// not survive: a compiled SPP instance holds millions of short AS
// sequences, and a heap block (plus a 24-byte header) per path dominates
// both memory and allocation time. PathPool is the fix: paths are
// appended once into a single growing buffer and referred to by
// offset-based Slice handles - 12 bytes per path, stable across arena
// growth (offsets, not pointers), trivially serializable.
//
// Users:
//   * bgp::SppInstance interns every permitted path here and hands out
//     PathListView/PathView windows instead of vector references.
// (scenario::SourcePathSet, the sweep cache's unit, stores its length-3
// paths run-length over hops and gap-coded instead; see
// scenario/metrics.hpp.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "panagree/topology/graph.hpp"

namespace panagree::paths {

/// Append-only arena of AS-id sequences. Slices index the arena by
/// offset, so they stay valid while views (which carry pointers) are
/// invalidated by growth - take views late, keep slices.
class PathPool {
 public:
  struct Slice {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;

    friend bool operator==(const Slice&, const Slice&) = default;
  };

  /// Copies `items` into the arena and returns its slice.
  Slice intern(std::span<const topology::AsId> items) {
    util::require(items.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "PathPool::intern: sequence too long");
    const Slice slice{items_.size(), static_cast<std::uint32_t>(items.size())};
    items_.insert(items_.end(), items.begin(), items.end());
    return slice;
  }

  /// Appends one item (incremental building; slice the run afterwards with
  /// slice_of()).
  void push_back(topology::AsId item) { items_.push_back(item); }

  /// The slice covering [begin, size()) - the tail appended since `begin`.
  [[nodiscard]] Slice slice_of(std::size_t begin) const {
    PANAGREE_ASSERT(begin <= items_.size());
    return Slice{begin, static_cast<std::uint32_t>(items_.size() - begin)};
  }

  [[nodiscard]] std::span<const topology::AsId> view(Slice slice) const {
    PANAGREE_ASSERT(slice.offset + slice.length <= items_.size());
    return {items_.data() + slice.offset, slice.length};
  }

  /// Total items interned (the offset the next intern would receive).
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  std::vector<topology::AsId> items_;
};

/// Lightweight read-only window over one pooled path. Implicitly
/// constructible from a std::vector<AsId> path so pooled and materialized
/// paths compare with the same operator (view == Path{...} just works).
class PathView {
 public:
  using value_type = topology::AsId;

  PathView() = default;
  PathView(const topology::AsId* data, std::size_t size)
      : data_(data), size_(size) {}
  /*implicit*/ PathView(std::span<const topology::AsId> ids)
      : data_(ids.data()), size_(ids.size()) {}
  /*implicit*/ PathView(const std::vector<topology::AsId>& path)
      : data_(path.data()), size_(path.size()) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] topology::AsId operator[](std::size_t i) const {
    PANAGREE_ASSERT(i < size_);
    return data_[i];
  }
  [[nodiscard]] topology::AsId front() const { return (*this)[0]; }
  [[nodiscard]] topology::AsId back() const { return (*this)[size_ - 1]; }
  [[nodiscard]] const topology::AsId* begin() const { return data_; }
  [[nodiscard]] const topology::AsId* end() const { return data_ + size_; }
  [[nodiscard]] std::span<const topology::AsId> ids() const {
    return {data_, size_};
  }

  /// Materializes an owning path (the bgp::Path shape).
  [[nodiscard]] std::vector<topology::AsId> to_path() const {
    return {data_, data_ + size_};
  }

  friend bool operator==(PathView a, PathView b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

  friend std::ostream& operator<<(std::ostream& os, PathView path) {
    os << "[";
    for (std::size_t i = 0; i < path.size_; ++i) {
      os << (i == 0 ? "" : " ") << path.data_[i];
    }
    return os << "]";
  }

 private:
  const topology::AsId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Read-only window over a contiguous run of pooled paths - the
/// vector-of-vector replacement handed out by bgp::SppInstance::permitted.
class PathListView {
 public:
  PathListView() = default;
  PathListView(const PathPool& pool, std::span<const PathPool::Slice> slices)
      : pool_(&pool), slices_(slices) {}

  [[nodiscard]] std::size_t size() const { return slices_.size(); }
  [[nodiscard]] bool empty() const { return slices_.empty(); }
  [[nodiscard]] PathView operator[](std::size_t i) const {
    PANAGREE_ASSERT(i < slices_.size());
    return PathView(pool_->view(slices_[i]));
  }

  class iterator {
   public:
    using value_type = PathView;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const PathPool* pool, const PathPool::Slice* slice)
        : pool_(pool), slice_(slice) {}

    PathView operator*() const { return PathView(pool_->view(*slice_)); }
    iterator& operator++() {
      ++slice_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++slice_;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const PathPool* pool_ = nullptr;
    const PathPool::Slice* slice_ = nullptr;
  };

  [[nodiscard]] iterator begin() const {
    return {pool_, slices_.data()};
  }
  [[nodiscard]] iterator end() const {
    return {pool_, slices_.data() + slices_.size()};
  }

  /// Materializes every path (test/debug convenience).
  [[nodiscard]] std::vector<std::vector<topology::AsId>> materialize() const {
    std::vector<std::vector<topology::AsId>> out;
    out.reserve(size());
    for (const PathView path : *this) {
      out.push_back(path.to_path());
    }
    return out;
  }

  friend bool operator==(const PathListView& a, const PathListView& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  const PathPool* pool_ = nullptr;
  std::span<const PathPool::Slice> slices_;
};

}  // namespace panagree::paths
