#include "cells.h"

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "alloc_count.h"
#include "bench_common.h"
#include "chaos/oracles.h"
#include "cloud/cluster.h"
#include "cloud/degradation.h"
#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "load/arrival.h"
#include "load/open_loop.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sim/pool.h"
#include "sut/profiles.h"
#include "txn/txn_manager.h"
#include "util/random.h"

namespace perfbench {

namespace cb = cloudybench;

namespace {

/// Substream label for per-cell seeds ("perf").
constexpr uint64_t kCellStream = 0x70657266ULL;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call into the program, adding its host seconds to `*sink`.
template <typename Fn>
auto Timed(double* sink, Fn&& fn) {
  struct Stop {
    double* sink;
    Clock::time_point t0 = Clock::now();
    ~Stop() { *sink += Since(t0); }
  } stop{sink};
  return fn();
}

/// The sales transaction set, seen through a counter: every transaction's
/// type, outcome and simulated duration, tallied by the benchmark itself
/// over the window the evaluator measures. Adds no simulated events — a
/// Task awaited inline resumes its caller at the same instant.
class TallyingTxns : public cb::TransactionSet {
 public:
  TallyingTxns(cb::SalesWorkloadConfig config, cb::sim::Environment* env)
      : inner_(std::move(config)), env_(env) {}

  std::vector<cb::storage::TableSchema> Schemas() const override {
    return inner_.Schemas();
  }
  uint64_t Seed() const override { return inner_.Seed(); }

  cb::sim::Task<cb::util::Status> RunOne(cb::cloud::Cluster* cluster,
                                         cb::util::Pcg32& rng,
                                         cb::TxnType* type_out) override {
    cb::sim::SimTime start = env_->Now();
    cb::util::Status s = co_await inner_.RunOne(cluster, rng, type_out);
    Record(*type_out, s, start, env_->Now());
    co_return s;
  }

  /// Window [t0, t1] by completion time; the tally covers only it.
  void SetWindow(cb::sim::SimTime t0, cb::sim::SimTime t1) {
    t0_ = t0;
    t1_ = t1;
  }

  ClosedLoopTally& tally() { return tally_; }
  int64_t commits() const { return commits_; }

 private:
  void Record(cb::TxnType type, const cb::util::Status& s,
              cb::sim::SimTime start, cb::sim::SimTime end) {
    if (s.ok()) ++commits_;
    int t = static_cast<int>(type);
    if (end <= t0_ || end > t1_ || t < 0 || t >= kSalesTypes) return;
    tally_.busy_s += (end - start).ToSeconds();
    if (s.ok()) {
      ++tally_.commits[t];
    } else if (s.IsUnavailable()) {
      ++tally_.unavailable[t];
    } else {
      ++tally_.aborts[t];
    }
  }

  cb::SalesTransactionSet inner_;
  cb::sim::Environment* env_;
  cb::sim::SimTime t0_{0};
  cb::sim::SimTime t1_{0};
  ClosedLoopTally tally_;
  int64_t commits_ = 0;
};

/// A deployed SUT: the steps of runner::CellDeployment, made one by one so
/// each layer's share of set-up is timed on its own.
struct Deployment {
  cb::sim::Environment env;
  std::unique_ptr<cb::cloud::Cluster> cluster;
};

void Deploy(const cb::runner::CellSpec& spec, const cb::TransactionSet& txns,
            Deployment* dep, CellRecord* rec) {
  cb::cloud::ClusterConfig cfg = cb::sut::MakeProfile(spec.sut, spec.time_scale);
  if (spec.serverless) cb::bench::MakeServerless(&cfg);
  if (spec.freeze_at_max) cb::sut::FreezeAtMaxCapacity(&cfg);
  dep->cluster = Timed(&rec->deploy_s, [&] {
    return std::make_unique<cb::cloud::Cluster>(&dep->env, cfg, spec.n_ro);
  });
  Timed(&rec->load_s,
        [&] { dep->cluster->Load(txns.Schemas(), spec.scale_factor); });
  Timed(&rec->prewarm_s, [&] { dep->cluster->PrewarmBuffers(); });
}

/// Host-side allocation counters of the calling thread.
struct HostCounters {
  cb::sim::Environment* env;
  uint64_t events;
  HeapCount heap;
  size_t frames;
  size_t books;

  static HostCounters Read(cb::sim::Environment* env) {
    return {env, env->dispatched_events(), ThreadHeapCount(),
            cb::sim::FrameArena::ThreadStats().fresh,
            cb::txn::TxnBookPool::ThreadStats().fresh};
  }
  void AddDeltaTo(CellRecord* rec) const {
    HostCounters now = Read(env);
    rec->run_events += static_cast<int64_t>(now.events - events);
    rec->heap_allocs += static_cast<int64_t>(now.heap.allocs - heap.allocs);
    rec->heap_bytes += static_cast<int64_t>(now.heap.bytes - heap.bytes);
    rec->frame_arena_fresh += static_cast<int64_t>(now.frames - frames);
    rec->book_pool_fresh += static_cast<int64_t>(now.books - books);
  }
};

std::vector<int64_t> AppliedLsns(cb::cloud::Cluster* cluster) {
  std::vector<int64_t> lsns;
  for (size_t i = 0; i < cluster->replayer_count(); ++i) {
    lsns.push_back(cluster->replayer(i)->applied_lsn());
  }
  return lsns;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Joins built-in fault scenarios (fault::BuiltinScenarios) into one plan.
std::string BuiltinFaults(std::initializer_list<const char*> names) {
  std::string plan;
  for (const char* name : names) {
    const cb::fault::Scenario* scenario = cb::fault::FindScenario(name);
    if (scenario == nullptr) {
      throw std::runtime_error(std::string("no built-in scenario ") + name);
    }
    if (!plan.empty()) plan += ';';
    plan += scenario->plan;
  }
  return plan;
}

void Fail(CellRecord* rec, const std::string& error) {
  if (rec->error.empty()) rec->error = error;
}

void RunClosedLoop(const CellPlan& plan, Deployment* dep, TallyingTxns* txns,
                   CellRecord* rec) {
  const cb::runner::CellSpec& spec = plan.spec;
  cb::OltpEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  cb::sim::SimTime start = dep->env.Now();
  txns->SetWindow(start + spec.warmup, start + spec.warmup + spec.measure);

  HostCounters before = HostCounters::Read(&dep->env);
  cb::OltpResult r = Timed(&rec->run_s, [&] {
    return cb::OltpEvaluator::Run(&dep->env, dep->cluster.get(), txns, options);
  });
  before.AddDeltaTo(rec);
  rec->sim_run_s = (dep->env.Now() - start).ToSeconds();
  rec->run_commits = txns->commits();

  ClosedLoopTally& tally = txns->tally();
  tally.concurrency = spec.concurrency;
  tally.weights = plan.weights;
  tally.window_s = spec.measure.ToSeconds();
  Fail(rec, CheckLittlesLaw(tally));
  Fail(rec, CheckTypeShares(tally));
  Fail(rec, CheckReportedTps(tally, r.mean_tps));
  // OltpEvaluator::Run leaves workers mid-transaction with its collector
  // gone, so the environment must not run on: replicas are judged undrained.
  Fail(rec, CheckReplicasNotAhead(dep->cluster->log_manager()->appended_lsn(),
                                  AppliedLsns(dep->cluster.get())));

  rec->digest = {{"tps", r.mean_tps},
                 {"p50_ms", r.p50_latency_ms},
                 {"p99_ms", r.p99_latency_ms},
                 {"commits", static_cast<double>(r.commits)},
                 {"aborts", static_cast<double>(r.aborts)},
                 {"p_score", r.p_score},
                 {"window.busy_s", tally.busy_s}};
  for (int t = 0; t < kSalesTypes; ++t) {
    std::string type = "window.T" + std::to_string(t + 1);
    rec->digest.emplace_back(type + ".commits",
                             static_cast<double>(tally.commits[t]));
    rec->digest.emplace_back(type + ".aborts",
                             static_cast<double>(tally.aborts[t]));
    rec->digest.emplace_back(type + ".unavailable",
                             static_cast<double>(tally.unavailable[t]));
  }
}

/// Quiescence, as the chaos harness defines it: nothing mid-recovery,
/// every node serving with no live transactions, every replayer applied.
bool Quiet(cb::cloud::Cluster* cluster) {
  if (cluster->rw_recovery_in_flight()) return false;
  if (!cluster->rw()->available()) return false;
  if (cluster->rw()->active_txns() != 0) return false;
  for (size_t i = 0; i < cluster->ro_count(); ++i) {
    cb::cloud::ComputeNode* node = cluster->ro(i);
    if (!node->available() || node->active_txns() != 0) return false;
  }
  for (size_t i = 0; i < cluster->replayer_count(); ++i) {
    if (!cluster->replayer(i)->Drained()) return false;
  }
  return true;
}

void RunOpenLoop(const CellPlan& plan, Deployment* dep,
                 cb::SalesTransactionSet* txns, CellRecord* rec) {
  cb::sim::Environment* env = &dep->env;
  cb::cloud::Cluster* cluster = dep->cluster.get();
  cluster->EnableDegradation(cb::cloud::DegradationPolicy{});

  cb::chaos::CommitLedger ledger;
  auto listener =
      [&ledger](std::span<const cb::txn::TxnBook::WriteOp> writes) {
        ledger.Record(writes);
      };
  cluster->rw()->txn().SetCommitListener(listener);
  for (size_t i = 0; i < cluster->ro_count(); ++i) {
    cluster->ro(i)->txn().SetCommitListener(listener);
  }

  cb::util::Result<cb::fault::FaultPlan> faults =
      cb::fault::ParseFaultPlan(plan.faults);
  cb::util::Result<cb::load::ArrivalPlan> arrivals =
      cb::load::ParseArrivalPlan(plan.arrivals);
  if (!faults.ok() || !arrivals.ok()) {
    throw std::runtime_error("plan strings must parse: " + plan.faults +
                             " / " + plan.arrivals);
  }
  cb::fault::FaultInjector injector(env, cluster);
  cb::fault::FaultPlan armed;
  for (const cb::fault::FaultSpec& spec : faults->specs) {
    if (injector.TargetExists(spec)) armed.specs.push_back(spec);
  }
  cb::sim::SimTime base = env->Now();
  Timed(&rec->arm_s, [&] { return injector.Arm(*faults, base); });

  cb::load::OpenLoopOptions options;
  options.seed = plan.spec.seed;
  options.horizon = cb::sim::Seconds(plan.horizon_s);
  options.drain = cb::sim::Seconds(plan.drain_s);
  HostCounters before = HostCounters::Read(env);
  cb::load::OpenLoopResult r = Timed(&rec->run_s, [&] {
    return cb::load::OpenLoopDriver::Run(env, cluster, txns, *arrivals,
                                         options);
  });
  before.AddDeltaTo(rec);
  rec->sim_run_s = (env->Now() - base).ToSeconds();
  rec->run_commits = r.commits;

  // Drain as the chaos harness does: every scheduled clear fired, then
  // recovery and replication catch-up to quiescence, then a settle window
  // for the breaker state machines.
  bool drained = Timed(&rec->drain_s, [&] {
    cb::sim::SimTime all_clear = base + armed.LastClearAt();
    if (env->Now() < all_clear) env->RunUntil(all_clear);
    cb::sim::SimTime deadline = env->Now() + cb::sim::Seconds(60);
    while (env->Now() < deadline && !Quiet(cluster)) {
      env->RunFor(cb::sim::Millis(500));
    }
    bool quiet = Quiet(cluster);
    if (quiet) env->RunFor(cb::sim::Seconds(5));
    return quiet;
  });

  cb::chaos::OracleInputs inputs;
  inputs.cluster = cluster;
  inputs.ledger = &ledger;
  inputs.sales = txns;
  inputs.armed = armed;
  inputs.drained = drained;
  inputs.degradation = true;
  inputs.faults_injected = injector.injected();
  inputs.faults_cleared = injector.cleared();
  // The journal half of the timeline oracle is skipped (-1) when the
  // timeline is compiled out.
  const cb::obs::Timeline& timeline = cb::obs::Timeline::Get();
  if (timeline.enabled()) {
    inputs.journal_injects = 0;
    inputs.journal_clears = 0;
    for (const cb::obs::TimelineEvent& event : timeline.events()) {
      if (event.kind == "fault.inject") ++inputs.journal_injects;
      if (event.kind == "fault.clear") ++inputs.journal_clears;
    }
  }
  cb::chaos::OracleReport report = Timed(
      &rec->oracles_s, [&] { return cb::chaos::EvaluateOracles(inputs); });

  std::vector<Verdict> verdicts;
  for (const cb::chaos::OracleVerdict& v : report.verdicts) {
    verdicts.push_back({v.oracle, v.pass, v.detail});
  }
  Fail(rec, drained ? "" : "drain: cluster not quiet 60 s after the faults");
  Fail(rec, CheckArrivals(r.generated,
                          DiurnalPoissonMean(plan.rate, plan.amplitude,
                                             plan.period_s, plan.horizon_s)));
  Fail(rec, CheckSessionConservation(
                {r.generated, r.commits, r.aborts, r.unavailable,
                 r.incomplete}));
  Fail(rec, CheckReplicasCaughtUp(cluster->log_manager()->flushed_lsn(),
                                  AppliedLsns(cluster)));
  Fail(rec, CheckOracles(verdicts));

  rec->fault_injected = injector.injected();
  rec->fault_cleared = injector.cleared();
  rec->load_arrivals = r.arrivals;
  rec->load_inflight_hwm = r.inflight_hwm;
  rec->load_executing_hwm = r.executing_hwm;
  rec->digest = {{"generated", static_cast<double>(r.generated)},
                 {"commits", static_cast<double>(r.commits)},
                 {"aborts", static_cast<double>(r.aborts)},
                 {"unavailable", static_cast<double>(r.unavailable)},
                 {"incomplete", static_cast<double>(r.incomplete)},
                 {"p50_ms", r.p50_ms},
                 {"p99_ms", r.p99_ms},
                 {"lag_p99_ms", r.lag_p99_ms},
                 {"inflight_hwm", static_cast<double>(r.inflight_hwm)},
                 {"executing_hwm", static_cast<double>(r.executing_hwm)},
                 {"acked_commits", static_cast<double>(ledger.acked_commits())},
                 {"faults_injected", static_cast<double>(injector.injected())},
                 {"drained", drained ? 1.0 : 0.0},
                 {"sim_end_s", env->Now().ToSeconds()}};
  for (const Verdict& v : verdicts) {
    rec->digest.emplace_back("oracle." + v.oracle, v.pass ? 1.0 : 0.0);
  }
  // The ledger dies with this frame; the nodes outlive it.
  cluster->rw()->txn().SetCommitListener({});
  for (size_t i = 0; i < cluster->ro_count(); ++i) {
    cluster->ro(i)->txn().SetCommitListener({});
  }
}

/// Work counters read through the layers' public accessors at cell end.
void ReadCounters(Deployment* dep, CellRecord* rec) {
  cb::cloud::Cluster* cluster = dep->cluster.get();
  rec->events = static_cast<int64_t>(dep->env.dispatched_events());
  auto add_node = [rec](cb::cloud::ComputeNode* node, bool rw) {
    (rw ? rec->rw_hits : rec->ro_hits) += node->buffer().hits();
    (rw ? rec->rw_misses : rec->ro_misses) += node->buffer().misses();
    rec->txn_commits += node->txn().commits();
    rec->txn_aborts += node->txn().aborts();
    rec->lock_grants += node->locks().grants();
    rec->lock_waits += node->locks().waits();
  };
  add_node(cluster->rw(), true);
  for (size_t i = 0; i < cluster->ro_count(); ++i) {
    add_node(cluster->ro(i), false);
  }
  rec->wal_records = cluster->log_manager()->records_appended();
  rec->wal_flush_batches = cluster->log_manager()->flush_batches();
  for (size_t i = 0; i < cluster->replayer_count(); ++i) {
    rec->repl_applied += cluster->replayer(i)->records_applied();
    rec->repl_arena_grows += cluster->replayer(i)->arena_grows();
  }
  rec->autoscaler_events =
      static_cast<int64_t>(cluster->autoscaler().events().size());

  const std::pair<const char*, int64_t> counters[] = {
      {"events", rec->events},
      {"rw_hits", rec->rw_hits},
      {"rw_misses", rec->rw_misses},
      {"ro_hits", rec->ro_hits},
      {"ro_misses", rec->ro_misses},
      {"wal_records", rec->wal_records},
      {"wal_flush_batches", rec->wal_flush_batches},
      {"txn_commits", rec->txn_commits},
      {"txn_aborts", rec->txn_aborts},
      {"lock_grants", rec->lock_grants},
      {"lock_waits", rec->lock_waits},
      {"repl_applied", rec->repl_applied},
      {"autoscaler_events", rec->autoscaler_events}};
  for (const auto& [name, value] : counters) {
    rec->digest.emplace_back(name, static_cast<double>(value));
  }
}

void ReadTrace(CellRecord* rec) {
  const cb::obs::TraceRecorder& recorder = cb::obs::TraceRecorder::Get();
  for (const cb::obs::Span& span : recorder.spans()) {
    int layer = static_cast<int>(span.layer);
    if (layer >= 0 && layer < kTraceLayers) ++rec->spans[layer];
  }
  cb::obs::Profiler profile = cb::obs::Profiler::FromTrace(recorder);
  for (int layer = 0; layer < kTraceLayers; ++layer) {
    rec->self_us[layer] =
        profile.ExclusiveUsByLayer(static_cast<cb::obs::Layer>(layer));
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "read_sf100") {
    *out = Workload::kReadSf100;
  } else if (name == "write_sf1") {
    *out = Workload::kWriteSf1;
  } else if (name == "faults_openloop") {
    *out = Workload::kFaultsOpenLoop;
  } else {
    return false;
  }
  return true;
}

std::vector<CellPlan> MakeCells(Workload workload, uint64_t seed) {
  std::vector<CellPlan> cells;
  uint64_t index = 0;
  for (cb::sut::SutKind sut : cb::sut::AllSuts()) {
    CellPlan p;
    p.spec.sut = sut;
    p.spec.n_ro = 1;
    p.spec.seed = cb::util::SplitSeed(seed, kCellStream, index++);
    switch (workload) {
      case Workload::kReadSf100:
        // ~21 GB of data against 44 MB..12 GB buffers: the miss path and
        // the prewarm of CDB3/CDB4's large local buffers dominate.
        p.spec.scale_factor = 100;
        p.spec.concurrency = 150;
        p.spec.pattern = "RO";
        p.spec.warmup = cb::sim::Seconds(1);
        p.spec.measure = cb::sim::Seconds(4);
        p.weights = cb::SalesWorkloadConfig::ReadOnly().ratios;
        break;
      case Workload::kWriteSf1:
        // The insert/update/delete mix of the replication ablation and the
        // replication property test: locks, WAL group commit, overlays and
        // replay carry the run on a ~200 MB working set.
        p.spec.scale_factor = 1;
        p.spec.concurrency = 100;
        p.spec.pattern = "IUD";
        p.spec.warmup = cb::sim::Seconds(1);
        p.spec.measure = cb::sim::Seconds(4);
        p.weights = cb::SalesWorkloadConfig::IudMix(40, 40, 20).ratios;
        break;
      case Workload::kFaultsOpenLoop:
        // Serverless deployments at the elasticity comparison's time scale,
        // under the read-write mix and the arrival grammar's own diurnal
        // example, cut at the saturation bench's 15 s horizon: three
        // quarters of a period, so the arrival count depends on the shape.
        // The faults are three of the built-in scenarios, armed together.
        p.spec.scale_factor = 1;
        p.spec.pattern = "RW";
        p.spec.serverless = true;
        p.spec.freeze_at_max = false;
        p.spec.time_scale = 0.1;
        p.weights = cb::SalesWorkloadConfig::ReadWrite().ratios;
        p.open_loop = true;
        p.rate = 800;
        p.amplitude = 0.5;
        p.period_s = 20;
        p.horizon_s = 15;
        p.drain_s = 2;
        p.arrivals = "process=poisson,rate=" + Num(p.rate) +
                     ",shape=diurnal,period=" + Num(p.period_s) +
                     "s,amplitude=" + Num(p.amplitude);
        p.faults = BuiltinFaults({"crash", "replay-stall", "link-degrade"});
        break;
    }
    cells.push_back(std::move(p));
  }
  return cells;
}

CellRecord RunCell(const CellPlan& plan, bool traced) {
  CellRecord rec;
  cb::obs::TraceRecorder::Get().SetEnabled(traced);
  // The timeline oracle compares the fault journal with the injector's
  // counters, so open-loop cells keep the journal.
  cb::obs::Timeline::Get().SetEnabled(plan.open_loop);

  cb::SalesWorkloadConfig config;
  config.ratios = plan.weights;
  config.seed = plan.spec.seed;
  auto dep = std::make_unique<Deployment>();
  // Closed-loop checks need every transaction tallied; open-loop cells are
  // judged on the driver's own counts and run the bare transaction set.
  // Both outlive the teardown below, like the deployment's workers.
  std::optional<cb::SalesTransactionSet> sales;
  std::optional<TallyingTxns> tallying;
  if (plan.open_loop) {
    sales.emplace(config);
    Deploy(plan.spec, *sales, dep.get(), &rec);
    RunOpenLoop(plan, dep.get(), &*sales, &rec);
  } else {
    tallying.emplace(config, &dep->env);
    Deploy(plan.spec, *tallying, dep.get(), &rec);
    RunClosedLoop(plan, dep.get(), &*tallying, &rec);
  }
  ReadCounters(dep.get(), &rec);
  if (traced) ReadTrace(&rec);
  Timed(&rec.teardown_s, [&] { dep.reset(); });
  return rec;
}

}  // namespace perfbench
