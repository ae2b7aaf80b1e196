// Read-only memory-mapped file, the zero-copy substrate of MappedSnapshot.
#pragma once

#include <cstddef>
#include <string>

namespace panagree::storage {

/// RAII wrapper around a read-only, private mmap of a whole file. Movable,
/// not copyable. An empty file maps to {nullptr, 0}.
class MmapFile {
 public:
  MmapFile() = default;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  ~MmapFile();

  /// Maps `path` read-only; throws SnapshotError on any I/O failure.
  [[nodiscard]] static MmapFile open(const std::string& path);

  /// Asks the kernel to prefetch a byte range of the mapping
  /// (MADV_WILLNEED; offsets are rounded out to page boundaries
  /// internally). Returns whether the kernel accepted the advice -
  /// callers report, they do not depend on it.
  bool prefetch(std::size_t offset, std::size_t length) const;

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace panagree::storage
