// Host-cost benchmark driver: runs one workload's cells in rounds through
// runner::MatrixRunner, one cell at a time, for a fixed host duration, and
// prints what the simulation cost the host end to end (--trace 0) or layer
// by layer (--trace 1) as one JSON line.
//
//   perfbench_driver --workload write_sf1 --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, metrics and checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cells.h"
#include "load/arrival.h"
#include "runner/runner.h"
#include "sampler.h"

namespace perfbench {
namespace {

namespace cb = cloudybench;
using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, before main: the cold set-up is
/// timed from here.
const Clock::time_point g_process_start = Clock::now();

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload read_sf100|write_sf1|"
               "faults_openloop --seed N --seconds S --trace 0|1\n",
               argv0, error.c_str(), argv0);
  std::exit(2);
}

struct Args {
  Workload workload = Workload::kWriteSf1;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0], "missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) {
        Usage(argv[0], "unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        Usage(argv[0], "bad --seed '" + value + "'");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600) {
        Usage(argv[0], "bad --seconds '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage(argv[0], "bad --trace '" + value + "'");
      }
      args.trace = value == "1";
    } else {
      Usage(argv[0], "unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) Usage(argv[0], "--workload is required");
  return args;
}

/// One round: every cell of the workload once, in SUT order.
struct Round {
  std::vector<CellRecord> cells;
  double wall_s = 0;

  template <typename Fn>
  double Sum(Fn&& field) const {
    double total = 0;
    for (const CellRecord& rec : cells) total += static_cast<double>(field(rec));
    return total;
  }
};

class Bench {
 public:
  Bench(const Args& args, bool sample_cpu)
      : plans_(MakeCells(args.workload, args.seed)), sample_cpu_(sample_cpu) {
    for (const CellPlan& plan : plans_) specs_.push_back(plan.spec);
  }

  Round RunRound(bool traced) {
    Round round;
    round.cells.resize(plans_.size());
    cb::runner::RunnerOptions options;
    options.jobs = 1;
    options.print_summary = false;
    cb::runner::MatrixRunner runner(options);
    auto t0 = Clock::now();
    std::vector<cb::runner::CellResult> results = runner.Run(
        specs_, [&](const cb::runner::CellContext& ctx) {
          if (sample_cpu_) CpuSampler::UnblockOnThisThread();
          round.cells[ctx.index] = RunCell(plans_[ctx.index], traced);
          const CellRecord& rec = round.cells[ctx.index];
          cb::runner::CellResult result;
          result.error = rec.error;
          result.sim_seconds = rec.sim_run_s;
          return result;
        });
    round.wall_s = Since(t0);

    for (size_t i = 0; i < results.size(); ++i) {
      CellRecord& rec = round.cells[i];
      std::string error = results[i].ok ? "" : results[i].error;
      // Any earlier run of this cell in this process is a re-run at the
      // same seed: its simulated outputs must repeat exactly.
      if (error.empty() && first_digest_.size() == plans_.size()) {
        error = CheckIdentical(first_digest_[i], rec.digest);
        if (!error.empty()) rec.error = error;
      }
      ++attempted_;
      if (!error.empty()) {
        ++failed_;
        // A check, not the cell's machinery, found the outputs wrong.
        if (!rec.error.empty()) correct_ = false;
        std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                     cb::runner::DefaultCellId(specs_[i]).c_str(),
                     error.c_str());
      }
    }
    std::fprintf(stderr, "perfbench: round %zu%s wall %.4f s, run %.4f s\n",
                 rounds_++, traced ? " (traced)" : "", round.wall_s,
                 round.Sum([](const CellRecord& c) { return c.run_s; }));
    if (first_digest_.empty()) {
      for (const CellRecord& rec : round.cells) first_digest_.push_back(rec.digest);
    }
    return round;
  }

  const std::vector<CellPlan>& plans() const { return plans_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::vector<CellPlan> plans_;
  std::vector<cb::runner::CellSpec> specs_;
  bool sample_cpu_;
  std::vector<Digest> first_digest_;
  size_t rounds_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      double v = entries_[i].second.first;
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].first.c_str(),
                    std::isfinite(v) ? v : 0.0, entries_[i].second.second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> entries_;
};

/// The 10th-percentile round of a per-round figure (nearest rank; the
/// fastest of fewer than eleven rounds). Every round repeats exactly the
/// same simulation (checked by the re-run digest), so rounds differ only by
/// the host. On a shared host the rounds slow down by up to half in phases
/// of seconds while neighbours load the memory system, and the median round
/// moves with whichever phases a run caught: over six 38 s faults_openloop
/// runs its IQR/median was 0.25, against 0.05 for the fastest tenth.
template <typename Fn>
double FastDecileOver(const std::vector<Round>& rounds, Fn&& per_round) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(per_round(round));
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 10];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Host nanoseconds per arrival of load::ArrivalGenerator on the workload's
/// own arrival plans, timed apart from the simulation: median over
/// repeated whole-schedule generations.
double ScheduleNsPerArrival(const std::vector<CellPlan>& plans) {
  std::vector<double> samples;
  auto t_end = Clock::now() + std::chrono::milliseconds(300);
  std::vector<cb::load::Arrival> batch;
  while (samples.size() < 5 || Clock::now() < t_end) {
    for (const CellPlan& plan : plans) {
      if (!plan.open_loop) continue;
      cb::util::Result<cb::load::ArrivalPlan> parsed =
          cb::load::ParseArrivalPlan(plan.arrivals);
      if (!parsed.ok()) return 0;
      auto t0 = Clock::now();
      cb::load::ArrivalGenerator gen(*parsed, plan.spec.seed,
                                     cb::sim::Seconds(plan.horizon_s));
      size_t n = 0;
      for (;;) {
        batch.clear();
        size_t got = gen.NextBatch(4096, &batch);
        if (got == 0) break;
        n += got;
      }
      double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                      .count();
      if (n > 0) samples.push_back(ns / static_cast<double>(n));
    }
    if (samples.empty()) return 0;
  }
  return Median(samples);
}

void EndToEnd(const std::vector<Round>& rounds, double pre_round_s,
              Metrics* m) {
  const Round& cold = rounds.front();
  m->Add("wall_s",
         FastDecileOver(rounds, [](const Round& r) { return r.wall_s; }), "s");
  // One cold set-up per run, not a statistic over rounds: later rounds
  // deploy into a warm process and heap, which measures another thing.
  m->Add("setup_s",
         pre_round_s + cold.Sum([](const CellRecord& c) {
           return c.deploy_s + c.load_s + c.prewarm_s;
         }),
         "s");
  // Rates are those of the 10th-percentile round; every round simulates the
  // same commits and seconds.
  double run_s = FastDecileOver(rounds, [](const Round& r) {
    return r.Sum([](const CellRecord& c) { return c.run_s; });
  });
  m->Add("txn_per_s",
         Ratio(cold.Sum([](const CellRecord& c) { return c.run_commits; }),
               run_s),
         "txn/s");
  m->Add("sim_s_per_s",
         Ratio(cold.Sum([](const CellRecord& c) { return c.sim_run_s; }), run_s),
         "s/s");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const char* const kLayerNames[kTraceLayers] = {
    "txn", "op", "commit", "lock", "cpu", "buffer", "log", "net", "replay",
    "load"};

const char* const kProfileModules[] = {
    "sim",   "storage", "txn",  "repl", "cloud", "load", "fault", "chaos",
    "core",  "runner",  "net",  "obs",  "util",  "sut",  "perfbench",
    "libc",  "other"};

void PerLayer(const std::vector<Round>& rounds, const Round& traced,
              const std::map<std::string, long>& samples, double cpu_s,
              double schedule_ns, Metrics* m) {
  auto host = [&](const char* name, auto field) {
    m->Add(name,
           FastDecileOver(rounds, [&](const Round& r) { return r.Sum(field); }),
           "s");
  };
  host("cloud.deploy_s", [](const CellRecord& c) { return c.deploy_s; });
  host("storage.load_s", [](const CellRecord& c) { return c.load_s; });
  host("storage.prewarm_s", [](const CellRecord& c) { return c.prewarm_s; });
  host("fault.arm_s", [](const CellRecord& c) { return c.arm_s; });
  host("core.run_s", [](const CellRecord& c) { return c.run_s; });
  host("chaos.drain_s", [](const CellRecord& c) { return c.drain_s; });
  host("chaos.oracles_s", [](const CellRecord& c) { return c.oracles_s; });
  host("runner.teardown_s", [](const CellRecord& c) { return c.teardown_s; });
  double wall = FastDecileOver(rounds, [](const Round& r) { return r.wall_s; });
  m->Add("runner.round_wall_s", wall, "s");
  m->Add("load.schedule_ns_per_arrival", schedule_ns, "ns");

  // Exact counts: the last untraced round, a re-run whose simulated outputs
  // were checked identical to the first.
  const Round& last = rounds.back();
  auto sum = [&](auto field) { return last.Sum(field); };
  double commits = sum([](const CellRecord& c) { return c.run_commits; });
  double run_events = sum([](const CellRecord& c) { return c.run_events; });
  double events = sum([](const CellRecord& c) { return c.events; });
  m->Add("sim.events", events, "count");
  m->Add("sim.events_per_txn",
         Ratio(events, sum([](const CellRecord& c) { return c.txn_commits; })),
         "count");
  m->Add("sim.ns_per_event",
         1e9 * Ratio(FastDecileOver(rounds,
                             [](const Round& r) {
                               return r.Sum(
                                   [](const CellRecord& c) { return c.run_s; });
                             }),
                     run_events),
         "ns");
  m->Add("sim.frame_arena_fresh",
         sum([](const CellRecord& c) { return c.frame_arena_fresh; }), "count");
  m->Add("storage.rw_hits", sum([](const CellRecord& c) { return c.rw_hits; }),
         "count");
  m->Add("storage.rw_misses",
         sum([](const CellRecord& c) { return c.rw_misses; }), "count");
  m->Add("storage.ro_hits", sum([](const CellRecord& c) { return c.ro_hits; }),
         "count");
  m->Add("storage.ro_misses",
         sum([](const CellRecord& c) { return c.ro_misses; }), "count");
  double wal = sum([](const CellRecord& c) { return c.wal_records; });
  double batches = sum([](const CellRecord& c) { return c.wal_flush_batches; });
  m->Add("storage.wal_records", wal, "count");
  m->Add("storage.wal_flush_batches", batches, "count");
  m->Add("storage.wal_records_per_batch", Ratio(wal, batches), "count");
  m->Add("txn.commits", sum([](const CellRecord& c) { return c.txn_commits; }),
         "count");
  m->Add("txn.aborts", sum([](const CellRecord& c) { return c.txn_aborts; }),
         "count");
  m->Add("txn.lock_grants",
         sum([](const CellRecord& c) { return c.lock_grants; }), "count");
  m->Add("txn.lock_waits",
         sum([](const CellRecord& c) { return c.lock_waits; }), "count");
  m->Add("txn.book_pool_fresh",
         sum([](const CellRecord& c) { return c.book_pool_fresh; }), "count");
  m->Add("process.heap_allocs_per_txn",
         Ratio(sum([](const CellRecord& c) { return c.heap_allocs; }), commits),
         "count");
  m->Add("process.heap_bytes_per_txn",
         Ratio(sum([](const CellRecord& c) { return c.heap_bytes; }), commits),
         "B");
  m->Add("repl.records_applied",
         sum([](const CellRecord& c) { return c.repl_applied; }), "count");
  m->Add("repl.arena_grows",
         sum([](const CellRecord& c) { return c.repl_arena_grows; }), "count");
  m->Add("cloud.autoscaler_events",
         sum([](const CellRecord& c) { return c.autoscaler_events; }), "count");
  m->Add("fault.injected",
         sum([](const CellRecord& c) { return c.fault_injected; }), "count");
  m->Add("fault.cleared",
         sum([](const CellRecord& c) { return c.fault_cleared; }), "count");
  m->Add("load.arrivals",
         sum([](const CellRecord& c) { return c.load_arrivals; }), "count");
  m->Add("load.inflight_hwm",
         sum([](const CellRecord& c) { return c.load_inflight_hwm; }), "count");
  m->Add("load.executing_hwm",
         sum([](const CellRecord& c) { return c.load_executing_hwm; }),
         "count");

  // Traced round: spans and simulated self time per span layer.
  for (int layer = 0; layer < kTraceLayers; ++layer) {
    m->Add(std::string("trace.spans.") + kLayerNames[layer],
           traced.Sum([&](const CellRecord& c) { return c.spans[layer]; }),
           "count");
  }
  for (int layer = 0; layer < kTraceLayers; ++layer) {
    m->Add(std::string("trace.sim_self_ms.") + kLayerNames[layer],
           traced.Sum([&](const CellRecord& c) { return c.self_us[layer]; }) /
               1e3,
           "ms");
  }
  m->Add("trace.wall_s", traced.wall_s, "s");
  m->Add("trace.run_s", traced.Sum([](const CellRecord& c) { return c.run_s; }),
         "s");
  m->Add("trace.overhead_ratio", Ratio(traced.wall_s, wall), "ratio");

  // Host CPU per round, split by the module owning each sampled function.
  long total = 0;
  for (const auto& [module, count] : samples) total += count;
  double per_round = cpu_s / static_cast<double>(rounds.size());
  for (const char* module : kProfileModules) {
    auto it = samples.find(module);
    long count = it == samples.end() ? 0 : it->second;
    m->Add(std::string("profile.") + module + "_s",
           total > 0 ? per_round * static_cast<double>(count) / total : 0, "s");
  }
  m->Add("profile.samples", static_cast<double>(total), "count");
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  // The sampler's signal must land on the runner's worker thread, which
  // inherits this thread's mask and unblocks itself.
  if (args.trace) CpuSampler::BlockOnThisThread();
  Bench bench(args, args.trace);
  std::optional<CpuSampler> sampler;
  if (args.trace) sampler.emplace(1000);
  double cpu0 = ProcessCpuSeconds();

  double pre_round_s = Since(g_process_start);
  std::vector<Round> rounds;
  auto t0 = Clock::now();
  // At least two rounds, so every cell is re-run and checked identical.
  while (rounds.size() < 2 || Since(t0) < args.seconds) {
    rounds.push_back(bench.RunRound(false));
  }

  Metrics metrics;
  if (!args.trace) {
    EndToEnd(rounds, pre_round_s, &metrics);
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    double cpu_s = ProcessCpuSeconds() - cpu0;
    std::map<std::string, long> samples = sampler->Attribute();
    double schedule_ns = ScheduleNsPerArrival(bench.plans());
    Round traced = bench.RunRound(true);
    PerLayer(rounds, traced, samples, cpu_s, schedule_ns, &metrics);
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      bench.correct() ? "true" : "false",
      static_cast<long long>(bench.attempted()),
      static_cast<long long>(bench.failed()), metrics.Json().c_str());
  return bench.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
