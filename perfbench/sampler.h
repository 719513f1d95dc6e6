#ifndef CLOUDYBENCH_PERFBENCH_SAMPLER_H_
#define CLOUDYBENCH_PERFBENCH_SAMPLER_H_

#include <map>
#include <string>

namespace perfbench {

/// Host-CPU sampler for the benchmark's own process: an ITIMER_PROF interval
/// timer raises SIGPROF every `interval_us` of process CPU time and the
/// handler stores the interrupted program counter. Attribute() then maps
/// each sample to the program module whose namespace owns the function it
/// landed in (cloudybench::sim -> "sim", functions directly in cloudybench
/// -> "core", ...), to "libc" for the C library, and to "other" for the
/// rest (libstdc++, the dynamic loader, the benchmark's own code).
///
/// Samples go to whichever thread was running, so the driver blocks
/// SIGPROF on its main thread and unblocks it on the runner's worker
/// thread with UnblockOnThisThread().
class CpuSampler {
 public:
  /// Installs the handler and starts the timer. One sampler per process.
  explicit CpuSampler(int interval_us);
  ~CpuSampler();

  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  static void BlockOnThisThread();
  static void UnblockOnThisThread();

  /// Stops the timer and returns sample counts per module.
  std::map<std::string, long> Attribute();

 private:
  bool stopped_ = false;
};

/// Module name for a mangled C++ symbol, by its leading namespaces.
std::string ModuleOfSymbol(const char* mangled);

}  // namespace perfbench

#endif  // CLOUDYBENCH_PERFBENCH_SAMPLER_H_
