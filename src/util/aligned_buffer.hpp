// Cache-line aligned data buffers for transform inputs.
//
// WHT plans operate in place on arrays of doubles.  Cache behaviour is part
// of what this library measures, so buffers are aligned to a cache-line (and
// optionally page) boundary: the cache simulator and the analytic cache model
// both assume the vector starts at the beginning of a line.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace whtlab::util {

/// Default alignment: one x86 cache line.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Buffers of at least this many bytes map their own pages.
inline constexpr std::size_t kMappedBufferBytes = std::size_t{1} << 20;

/// RAII buffer of doubles with guaranteed alignment.
///
/// Intentionally minimal: no resizing, no copying (measurement code must not
/// accidentally reallocate mid-experiment); movable so it can be returned
/// from factories.
///
/// A buffer of kMappedBufferBytes or more maps its own pages, so freeing it
/// returns them at once.  From the heap, a vector-sized buffer that lives
/// only briefly (a measurement's master and work copies) leaves a resident
/// hole whenever a small allocation lands above it, and glibc serves such
/// sizes from the heap once freeing one mapping has raised its mmap
/// threshold.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count, std::size_t alignment = kCacheLineBytes)
      : size_(count) {
    if (count == 0) return;
    // aligned_alloc requires the size to be a multiple of the alignment.
    std::size_t bytes = count * sizeof(double);
    bytes = (bytes + alignment - 1) / alignment * alignment;
    // A mapping starts on a page, which meets any alignment up to 4 KiB.
    if (bytes >= kMappedBufferBytes && alignment <= 4096) {
      void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (map == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<double*>(map);
      mapped_bytes_ = bytes;
      return;
    }
    data_ = static_cast<double*>(std::aligned_alloc(alignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  double* data() noexcept { return data_; }
  const double* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  double& operator[](std::size_t i) noexcept { return data_[i]; }
  double operator[](std::size_t i) const noexcept { return data_[i]; }

  double* begin() noexcept { return data_; }
  double* end() noexcept { return data_ + size_; }
  const double* begin() const noexcept { return data_; }
  const double* end() const noexcept { return data_ + size_; }

  void fill(double v) noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = v;
  }

 private:
  void release() noexcept {
    if (mapped_bytes_ != 0) {
      ::munmap(data_, mapped_bytes_);
    } else {
      std::free(data_);
    }
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_bytes_ = 0;  ///< nonzero: data_ is its own mapping
};

}  // namespace whtlab::util
