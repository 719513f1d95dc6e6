#include "checks.h"

#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

constexpr const char* kTypeNames[kSalesTypes] = {"T1", "T2", "T3", "T4"};
constexpr double kPi = 3.14159265358979323846;

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

int64_t Sum(const std::array<int64_t, kSalesTypes>& a) {
  return std::accumulate(a.begin(), a.end(), int64_t{0});
}

}  // namespace

int64_t ClosedLoopTally::Completed() const {
  return Sum(commits) + Sum(aborts) + Sum(unavailable);
}

int64_t ClosedLoopTally::Commits() const { return Sum(commits); }

std::string CheckLittlesLaw(const ClosedLoopTally& tally, double tolerance) {
  if (tally.window_s <= 0 || tally.concurrency <= 0) {
    return "little: empty window or no workers";
  }
  if (tally.Completed() == 0) return "little: no transaction completed";
  double backoff = static_cast<double>(Sum(tally.aborts)) *
                       tally.abort_backoff_s +
                   static_cast<double>(Sum(tally.unavailable)) *
                       tally.unavailable_backoff_s;
  double in_system = (tally.busy_s + backoff) / tally.window_s;
  double error = std::fabs(in_system - tally.concurrency) / tally.concurrency;
  if (error > tolerance) {
    return Format(
        "little: X*R = %.3f transactions in system (%lld completed in %.3f s, "
        "busy %.3f s, backoff %.3f s) vs %d workers",
        in_system, static_cast<long long>(tally.Completed()), tally.window_s,
        tally.busy_s, backoff, tally.concurrency);
  }
  return "";
}

std::string CheckTypeShares(const ClosedLoopTally& tally, double sigmas) {
  int weight_total =
      std::accumulate(tally.weights.begin(), tally.weights.end(), 0);
  if (weight_total <= 0) return "shares: no type has weight";
  int64_t completed = tally.Completed();
  int64_t commits = tally.Commits();
  if (completed == 0) return "shares: no transaction completed";
  for (int t = 0; t < kSalesTypes; ++t) {
    double p = static_cast<double>(tally.weights[t]) / weight_total;
    int64_t ran = tally.commits[t] + tally.aborts[t] + tally.unavailable[t];
    double n = static_cast<double>(completed);
    double sd = std::sqrt(n * p * (1 - p));
    double expect = n * p;
    if (std::fabs(static_cast<double>(ran) - expect) > sigmas * sd + 0.5) {
      return Format("shares: %s completed %lld of %lld, expected %.1f +- %.1f",
                    kTypeNames[t], static_cast<long long>(ran),
                    static_cast<long long>(completed), expect, sigmas * sd);
    }
    double cn = static_cast<double>(commits);
    double failed = static_cast<double>(ran - tally.commits[t]);
    double csd = std::sqrt(cn * p * (1 - p));
    double cexpect = cn * p;
    if (std::fabs(static_cast<double>(tally.commits[t]) - cexpect) >
        sigmas * csd + failed + 0.5) {
      return Format("shares: %s committed %lld of %lld, expected %.1f +- %.1f",
                    kTypeNames[t], static_cast<long long>(tally.commits[t]),
                    static_cast<long long>(commits), cexpect,
                    sigmas * csd + failed);
    }
  }
  return "";
}

std::string CheckReportedTps(const ClosedLoopTally& tally, double reported_tps,
                             double tolerance) {
  if (tally.window_s <= 0) return "tps: empty window";
  double counted = static_cast<double>(tally.Commits()) / tally.window_s;
  if (std::fabs(reported_tps - counted) >
      tolerance * counted + 1.0 / tally.window_s) {
    return Format("tps: program reports %.2f/s, %lld commits completed in the "
                  "%.3f s window give %.2f/s",
                  reported_tps, static_cast<long long>(tally.Commits()),
                  tally.window_s, counted);
  }
  return "";
}

double DiurnalPoissonMean(double rate, double amplitude, double period_s,
                          double horizon_s) {
  double w = 2.0 * kPi / period_s;
  return rate * (horizon_s + amplitude * (1.0 - std::cos(w * horizon_s)) / w);
}

std::string CheckArrivals(int64_t generated, double expected_mean,
                          double sigmas) {
  if (expected_mean <= 0) return "arrivals: expected mean is not positive";
  double sd = std::sqrt(expected_mean);
  if (std::fabs(static_cast<double>(generated) - expected_mean) > sigmas * sd) {
    return Format("arrivals: generated %lld, rate shape integrates to %.1f "
                  "+- %.1f",
                  static_cast<long long>(generated), expected_mean, sigmas * sd);
  }
  return "";
}

std::string CheckSessionConservation(const OpenLoopCounts& c) {
  int64_t ended = c.commits + c.aborts + c.unavailable + c.incomplete;
  if (c.generated <= 0) return "sessions: none generated";
  if (ended != c.generated) {
    return Format("sessions: generated %lld != commits %lld + aborts %lld + "
                  "unavailable %lld + incomplete %lld",
                  static_cast<long long>(c.generated),
                  static_cast<long long>(c.commits),
                  static_cast<long long>(c.aborts),
                  static_cast<long long>(c.unavailable),
                  static_cast<long long>(c.incomplete));
  }
  return "";
}

std::string CheckReplicasCaughtUp(int64_t durable_lsn,
                                  const std::vector<int64_t>& applied_lsns) {
  if (applied_lsns.empty()) return "replicas: none deployed";
  for (size_t i = 0; i < applied_lsns.size(); ++i) {
    if (applied_lsns[i] < durable_lsn) {
      return Format("replicas: replica %zu applied lsn %lld < durable %lld", i,
                    static_cast<long long>(applied_lsns[i]),
                    static_cast<long long>(durable_lsn));
    }
  }
  return "";
}

std::string CheckReplicasNotAhead(int64_t appended_lsn,
                                  const std::vector<int64_t>& applied_lsns) {
  if (applied_lsns.empty()) return "replicas: none deployed";
  for (size_t i = 0; i < applied_lsns.size(); ++i) {
    if (applied_lsns[i] > appended_lsn) {
      return Format("replicas: replica %zu applied lsn %lld > appended %lld",
                    i, static_cast<long long>(applied_lsns[i]),
                    static_cast<long long>(appended_lsn));
    }
  }
  return "";
}

std::string CheckOracles(const std::vector<Verdict>& verdicts) {
  static const char* kOracles[] = {"durability", "conservation", "convergence",
                                   "breaker", "timeline"};
  for (const char* name : kOracles) {
    bool seen = false;
    for (const Verdict& v : verdicts) {
      if (v.oracle != name) continue;
      seen = true;
      if (!v.pass) return "oracle " + v.oracle + ": " + v.detail;
    }
    if (!seen) return std::string("oracle ") + name + ": no verdict";
  }
  return "";
}

std::string CheckIdentical(const Digest& first, const Digest& again) {
  if (first.size() != again.size()) {
    return Format("rerun: %zu outputs, first run had %zu", again.size(),
                  first.size());
  }
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i].first != again[i].first) {
      return "rerun: output " + again[i].first + " where first run had " +
             first[i].first;
    }
    // Bit-for-bit: the simulation is deterministic, so even the doubles
    // must repeat exactly.
    if (!(first[i].second == again[i].second)) {
      return Format("rerun: %s = %.17g, first run %.17g",
                    first[i].first.c_str(), again[i].second, first[i].second);
    }
  }
  return "";
}

}  // namespace perfbench
