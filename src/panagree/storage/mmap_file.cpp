#include "panagree/storage/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "panagree/storage/format.hpp"

namespace panagree::storage {

namespace {

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw SnapshotError("MmapFile: " + std::string(what) + " '" + path +
                      "': " + std::strerror(errno));
}

}  // namespace

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    this->~MmapFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

bool MmapFile::prefetch(std::size_t offset, std::size_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) {
    return false;
  }
  length = std::min(length, size_ - offset);
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t start = offset & ~(page - 1);
  const std::size_t end = offset + length;
  return ::madvise(const_cast<std::byte*>(data_) + start, end - start,
                   MADV_WILLNEED) == 0;
}

MmapFile MmapFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(path, "cannot open");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "cannot stat");
  }
  MmapFile out;
  out.size_ = static_cast<std::size_t>(st.st_size);
  if (out.size_ > 0) {
    void* mapped =
        ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      out.size_ = 0;
      fail(path, "cannot mmap");
    }
    out.data_ = static_cast<const std::byte*>(mapped);
  }
  // The mapping survives the descriptor.
  ::close(fd);
  return out;
}

}  // namespace panagree::storage
