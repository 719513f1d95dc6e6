#ifndef CLOUDYBENCH_PERFBENCH_ALLOC_COUNT_H_
#define CLOUDYBENCH_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through the global operator new on the calling
/// thread since it started. alloc_count.cc replaces the global operator new
/// and delete for the whole driver, libraries included, and counts there.
struct HeapCount {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
HeapCount ThreadHeapCount();

}  // namespace perfbench

#endif  // CLOUDYBENCH_PERFBENCH_ALLOC_COUNT_H_
