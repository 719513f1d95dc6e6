#ifndef CLOUDYBENCH_PERFBENCH_CHECKS_H_
#define CLOUDYBENCH_PERFBENCH_CHECKS_H_

// Correctness checks the benchmark applies to every cell. Each takes plain
// numbers the cell counted or read from the program, and compares them with
// a property or with an independent computation, never with a stored copy
// of an earlier run. A check returns "" when it holds and a one-line reason
// when it does not; checks_test.cc feeds each a doctored input.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Sales transaction types T1..T4, in the program's TxnType order.
inline constexpr int kSalesTypes = 4;

/// What the benchmark's own transaction-set wrapper counted for a
/// closed-loop cell over the evaluator's measured window [t0, t1): every
/// transaction that *completed* inside the window, by type and outcome.
struct ClosedLoopTally {
  int concurrency = 0;
  std::array<int, kSalesTypes> weights{};
  double window_s = 0;
  /// Sum of the simulated durations of the transactions completed in the
  /// window, in seconds.
  double busy_s = 0;
  std::array<int64_t, kSalesTypes> commits{};
  std::array<int64_t, kSalesTypes> aborts{};
  std::array<int64_t, kSalesTypes> unavailable{};
  /// The client's fixed pauses after a failed attempt (the program's
  /// WorkloadManager backs off 1 ms after an abort, 200 ms after an
  /// unavailable error); time a worker spends there is not in busy_s.
  double abort_backoff_s = 0.001;
  double unavailable_backoff_s = 0.2;

  int64_t Completed() const;
  int64_t Commits() const;
};

/// Little's law on a closed loop with no think time: the mean number of
/// transactions in the system, completions per second times mean latency,
/// plus the share of time workers sit in their backoff pauses, equals the
/// number of workers. `tolerance` is relative and absorbs the transactions
/// that straddle the window's edges.
std::string CheckLittlesLaw(const ClosedLoopTally& tally,
                            double tolerance = 0.05);

/// Every worker draws each transaction's type independently from the
/// configured weights, so the completed transactions of each type are
/// binomial in the completed total: each count must sit within `sigmas`
/// standard deviations of its expectation, and a type with weight 0 must
/// never run. Commits are checked the same way, with the type's failed
/// attempts added to the allowance.
std::string CheckTypeShares(const ClosedLoopTally& tally, double sigmas = 5.0);

/// The program's reported mean TPS over the measured window against the
/// commits the wrapper saw complete in that window, within `tolerance`
/// (relative) plus one commit per second of rounding.
std::string CheckReportedTps(const ClosedLoopTally& tally, double reported_tps,
                             double tolerance = 0.02);

/// Expected arrivals of one Poisson stream with a diurnal shape,
/// rate * (1 + amplitude * sin(2*pi*t/period)), integrated over [0, horizon).
double DiurnalPoissonMean(double rate, double amplitude, double period_s,
                          double horizon_s);

/// Generated arrivals within `sigmas` Poisson standard deviations of the
/// integrated rate shape.
std::string CheckArrivals(int64_t generated, double expected_mean,
                          double sigmas = 5.0);

/// An open-loop session runs exactly one transaction here, so every
/// generated session ends as one commit, abort or unavailable error, or is
/// still incomplete at the cut-off.
struct OpenLoopCounts {
  int64_t generated = 0;
  int64_t commits = 0;
  int64_t aborts = 0;
  int64_t unavailable = 0;
  int64_t incomplete = 0;
};
std::string CheckSessionConservation(const OpenLoopCounts& counts);

/// After the drain every replica has applied at least the primary's last
/// durable log position.
std::string CheckReplicasCaughtUp(int64_t durable_lsn,
                                  const std::vector<int64_t>& applied_lsns);

/// Before any drain a replica can lag but never run ahead of the log its
/// primary appended.
std::string CheckReplicasNotAhead(int64_t appended_lsn,
                                  const std::vector<int64_t>& applied_lsns);

/// One chaos oracle's verdict, as the program reported it.
struct Verdict {
  std::string oracle;
  bool pass = false;
  std::string detail;
};
/// All five oracles (durability, conservation, convergence, breaker,
/// timeline) reported, and each passed.
std::string CheckOracles(const std::vector<Verdict>& verdicts);

/// Named simulated outputs of one cell. Two runs of the same cell at the
/// same seed must produce identical values, name for name.
using Digest = std::vector<std::pair<std::string, double>>;
std::string CheckIdentical(const Digest& first, const Digest& again);

}  // namespace perfbench

#endif  // CLOUDYBENCH_PERFBENCH_CHECKS_H_
