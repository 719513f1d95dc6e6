// Counting replacements of the global allocation functions. Every
// allocating form funnels into Allocate(); every deallocating form into
// free(). Counters are thread-local so a cell reads its own allocations
// without atomics on the hot path.
#include "alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

constinit thread_local HeapCount tls_count;

void* Allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  ++tls_count.allocs;
  tls_count.bytes += bytes;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  }
  return p;
}

void* AllocateOrThrow(std::size_t bytes, std::size_t align) {
  void* p = Allocate(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

HeapCount ThreadHeapCount() { return tls_count; }

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateOrThrow;

void* operator new(std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new[](std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
