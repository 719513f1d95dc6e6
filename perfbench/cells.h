#ifndef CLOUDYBENCH_PERFBENCH_CELLS_H_
#define CLOUDYBENCH_PERFBENCH_CELLS_H_

// The benchmark's workloads and the cell function that runs one of their
// cells, timing every call it makes into a layer of the program and reading
// the layers' work counters afterwards.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "runner/matrix.h"

namespace perfbench {

enum class Workload { kReadSf100, kWriteSf1, kFaultsOpenLoop };

/// "read_sf100" / "write_sf1" / "faults_openloop"; false for anything else.
bool ParseWorkload(std::string_view name, Workload* out);

/// One cell's inputs, all derived from the benchmark seed.
struct CellPlan {
  cloudybench::runner::CellSpec spec;
  /// T1..T4 weights of the sales mix.
  std::array<int, kSalesTypes> weights{};
  /// Open-loop cells: the --arrivals= and --faults= plan strings the program
  /// parses, and the diurnal Poisson parameters the arrival plan was
  /// written from (the arrivals check integrates them independently).
  bool open_loop = false;
  std::string arrivals;
  std::string faults;
  double rate = 0;
  double amplitude = 0;
  double period_s = 0;
  double horizon_s = 0;
  double drain_s = 0;
};

/// The cells of one round of `workload`: one per SUT, in SUT order.
std::vector<CellPlan> MakeCells(Workload workload, uint64_t seed);

/// The span layers of obs::Layer, in enum order.
inline constexpr int kTraceLayers = 10;

/// What one cell cost the host and what each layer did.
struct CellRecord {
  // Host seconds around each public call.
  double deploy_s = 0;    ///< cloud::Cluster construction
  double load_s = 0;      ///< Cluster::Load
  double prewarm_s = 0;   ///< Cluster::PrewarmBuffers
  double arm_s = 0;       ///< fault::FaultInjector arming
  double run_s = 0;       ///< OltpEvaluator::Run / OpenLoopDriver::Run
  double drain_s = 0;     ///< post-fault drain to quiescence
  double oracles_s = 0;   ///< chaos::EvaluateOracles
  double teardown_s = 0;  ///< cluster and environment destruction

  // Simulation phase (the Run call).
  double sim_run_s = 0;     ///< simulated seconds the Run call advanced
  int64_t run_events = 0;   ///< events dispatched inside the Run call
  int64_t run_commits = 0;  ///< transactions committed inside the Run call
  int64_t heap_allocs = 0;  ///< operator new calls inside the Run call
  int64_t heap_bytes = 0;
  int64_t frame_arena_fresh = 0;
  int64_t book_pool_fresh = 0;

  // Exact work counters read through the layers' accessors at cell end.
  int64_t events = 0;  ///< every event the cell's environment dispatched
  int64_t rw_hits = 0, rw_misses = 0, ro_hits = 0, ro_misses = 0;
  int64_t wal_records = 0, wal_flush_batches = 0;
  int64_t txn_commits = 0, txn_aborts = 0;
  int64_t lock_grants = 0, lock_waits = 0;
  int64_t repl_applied = 0, repl_arena_grows = 0;
  int64_t autoscaler_events = 0;
  int64_t fault_injected = 0, fault_cleared = 0;
  int64_t load_arrivals = 0, load_inflight_hwm = 0, load_executing_hwm = 0;

  // Traced rounds only: spans recorded and simulated self time per layer.
  std::array<int64_t, kTraceLayers> spans{};
  std::array<int64_t, kTraceLayers> self_us{};

  /// Simulated outputs, compared across re-runs of the cell.
  Digest digest;
  /// First failing check ("" when every check held).
  std::string error;
};

/// Runs one cell. With `traced`, the thread's obs::TraceRecorder is armed
/// for the cell and the per-layer span figures are filled in.
CellRecord RunCell(const CellPlan& plan, bool traced);

}  // namespace perfbench

#endif  // CLOUDYBENCH_PERFBENCH_CELLS_H_
