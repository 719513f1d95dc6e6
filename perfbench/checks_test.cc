// Feeds every correctness check of the benchmark one consistent input, which
// it must accept, and doctored copies, each of which it must reject.
//
//   cmake --build .bench_build/perfbench --target perfbench_checks_test
//   .bench_build/perfbench/perfbench_checks_test
//
// (python3 perfbench/run.py --selftest does both.)

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"

namespace {

int g_failures = 0;

void Expect(const char* what, const std::string& error, bool want_pass) {
  bool passed = error.empty();
  if (passed != want_pass) {
    ++g_failures;
    std::printf("FAIL %s: expected %s, got %s\n", what,
                want_pass ? "pass" : "a rejection",
                passed ? "pass" : error.c_str());
  } else {
    std::printf("ok   %s%s%s\n", what, passed ? "" : " -> ",
                passed ? "" : error.c_str());
  }
}

/// 100 workers, 4 s window, 15:5:80 mix, 20 ms mean latency: 20000
/// completions, 400 s of busy time minus a little backoff.
perfbench::ClosedLoopTally GoodTally() {
  perfbench::ClosedLoopTally t;
  t.concurrency = 100;
  t.weights = {15, 5, 80, 0};
  t.window_s = 4;
  t.commits = {2990, 980, 15990, 0};
  t.aborts = {10, 20, 10, 0};
  t.busy_s = 400 - 40 * t.abort_backoff_s;
  return t;
}

}  // namespace

int main() {
  using namespace perfbench;

  ClosedLoopTally good = GoodTally();
  Expect("little: consistent tally", CheckLittlesLaw(good), true);
  ClosedLoopTally slow = good;
  slow.busy_s *= 1.2;  // latencies 20% longer than the workers could take
  Expect("little: latencies inflated", CheckLittlesLaw(slow), false);
  ClosedLoopTally lost = good;
  lost.commits[2] -= 4000;  // completions dropped from the count
  lost.busy_s -= 4000 * 0.02;
  Expect("little: completions lost", CheckLittlesLaw(lost), false);

  Expect("shares: consistent tally", CheckTypeShares(good), true);
  ClosedLoopTally skewed = good;
  skewed.commits[0] += 600;  // T1 over-represented by 3 sigma * 4
  skewed.commits[2] -= 600;
  Expect("shares: T1 over-represented", CheckTypeShares(skewed), false);
  ClosedLoopTally forbidden = good;
  forbidden.commits[3] = 1;  // T4 has weight 0
  Expect("shares: zero-weight type ran", CheckTypeShares(forbidden), false);

  Expect("tps: matches the window", CheckReportedTps(good, 19960 / 4.0), true);
  Expect("tps: covers warmup too",
         CheckReportedTps(good, 19960 / 4.0 * 1.25), false);

  Expect("diurnal mean: full period integrates to rate*horizon",
         std::abs(DiurnalPoissonMean(400, 0.6, 20, 20) - 8000) < 1e-6
             ? ""
             : "wrong integral",
         true);
  // Three quarters of a period, as faults_openloop runs it: the rising
  // half adds a*P/pi and the falling quarter takes back a*P/(2*pi).
  double mean = DiurnalPoissonMean(800, 0.5, 20, 15);
  double lift = 800 * 0.5 * 20 / (2 * 3.14159265358979);
  Expect("diurnal mean: three quarters of a period",
         std::abs(mean - (12000 + lift)) < 1e-3 ? "" : "wrong integral", true);
  Expect("arrivals: within noise", CheckArrivals(13273 + 300, mean), true);
  Expect("arrivals: shape ignored (flat rate*horizon)",
         CheckArrivals(12000, mean), false);
  Expect("arrivals: shape inverted", CheckArrivals(12000 - 1273, mean), false);
  Expect("arrivals: rate inflated", CheckArrivals(16000, mean), false);

  OpenLoopCounts counts{8000, 7700, 150, 100, 50};
  Expect("sessions: conserved", CheckSessionConservation(counts), true);
  OpenLoopCounts leaked = counts;
  leaked.incomplete = 0;  // 50 sessions vanished
  Expect("sessions: leaked", CheckSessionConservation(leaked), false);
  OpenLoopCounts doubled = counts;
  doubled.commits += 1;  // one session counted twice
  Expect("sessions: double count", CheckSessionConservation(doubled), false);

  Expect("replicas: caught up", CheckReplicasCaughtUp(500, {500, 612}), true);
  Expect("replicas: one behind", CheckReplicasCaughtUp(500, {500, 499}), false);
  Expect("replicas: none", CheckReplicasCaughtUp(500, {}), false);
  Expect("replicas: behind but not ahead", CheckReplicasNotAhead(500, {120}),
         true);
  Expect("replicas: ahead of the log", CheckReplicasNotAhead(500, {501}),
         false);

  std::vector<Verdict> verdicts = {{"durability", true, ""},
                                   {"conservation", true, ""},
                                   {"convergence", true, ""},
                                   {"breaker", true, ""},
                                   {"timeline", true, ""}};
  Expect("oracles: all pass", CheckOracles(verdicts), true);
  std::vector<Verdict> lost_write = verdicts;
  lost_write[0] = {"durability", false, "acked insert missing"};
  Expect("oracles: durability fails", CheckOracles(lost_write), false);
  std::vector<Verdict> missing(verdicts.begin(), verdicts.end() - 1);
  Expect("oracles: timeline verdict missing", CheckOracles(missing), false);

  Digest first = {{"commits", 19960}, {"p99_ms", 41.25}};
  Expect("rerun: identical", CheckIdentical(first, first), true);
  Digest drift = {{"commits", 19960}, {"p99_ms", 41.250000000000007}};
  Expect("rerun: one ulp of drift", CheckIdentical(first, drift), false);
  Digest renamed = {{"commits", 19960}, {"p50_ms", 41.25}};
  Expect("rerun: different output", CheckIdentical(first, renamed), false);
  Digest shorter = {{"commits", 19960}};
  Expect("rerun: output missing", CheckIdentical(first, shorter), false);

  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
