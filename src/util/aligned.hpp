// Cache-line-aligned allocator for DP row storage.
//
// The vectorized row sweeps load the previous row's S/D arrays with full
// vectors; 64-byte alignment keeps those loads off cache-line splits.
#pragma once

#include <cstddef>
#include <new>

namespace fastz::util {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return true;
  }
};

}  // namespace fastz::util
