// Traced mode: hosts the serving layers in this process and replays the
// workload's request mix through each layer's public entry point, timing
// every call from outside and reading Database::SnapshotWorkCounters
// deltas around it. Nothing is added inside the program.
//
//   net        Client::Check against an in-process net::Server
//   service    CheckService::Submit(...).get()
//   ufilter    UFilter::Prepare (from an empty plan cache),
//              UFilter::TryCheckReadOnly on a snapshot-pinned context,
//              UFilter::Execute(apply) inside a Database::WriterGuard
//   relational Database::OpenSnapshot, QueryEvaluator::ExecutePlan on the
//              prepared anchor/victim probe plans, the guard's release
//              (publish, copy-on-write retire, WAL append/fsync)
//   repl       a follower (Follower + its own Server) fed by a
//              ReplicationSource on the primary's WAL, scraped with
//              Client::Metrics
//
// Every layer sees the same chain size as the workload's end-to-end run.
// The apply and replication layers run the write_mix apply stream in every
// workload, so the check-only workloads give their cost at that size.
#include <deque>
#include <memory>
#include <thread>

#include "fixtures/synthetic.h"
#include "harness.h"
#include "net/replication.h"
#include "net/server.h"
#include "relational/query.h"
#include "relational/wal.h"
#include "ufilter/checker.h"

namespace perfbench {
namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::relational::Database;

Verdict VerdictOf(CheckOutcome o) {
  switch (o) {
    case CheckOutcome::kExecuted:
      return Verdict::kExecuted;
    case CheckOutcome::kInvalid:
      return Verdict::kInvalid;
    case CheckOutcome::kUntranslatable:
      return Verdict::kUntranslatable;
    case CheckOutcome::kDataConflict:
      return Verdict::kDataConflict;
    case CheckOutcome::kDeadlineExceeded:
      return Verdict::kDeadlineExceeded;
    case CheckOutcome::kNotRun:
      break;
  }
  return Verdict::kNotRun;
}

/// Checks an in-process report against the oracle, as the wire would see it.
bool CheckReportAgainst(Tally* tally, const Op& op, const CheckReport& r) {
  ufilter::net::CheckResponseMsg msg;
  msg.verdict = VerdictOf(r.outcome);
  msg.rows_affected = r.rows_affected;
  msg.message = r.error.ok() ? "" : r.error.ToString();
  return tally->Check(op, msg);
}

/// The workload's check-only request mix, `n` requests long.
std::vector<Op> RequestMix(const std::string& workload, const Oracle& oracle,
                           uint64_t seed, size_t n) {
  Rng pool_rng = MakeRng(seed, 1);
  Rng rng = MakeRng(seed, 100);
  std::vector<Op> pool;
  if (workload == "hot_checks") pool = HotPool(oracle, pool_rng);
  if (workload == "large_view_deletes") pool = LargeDeletePool(oracle, pool_rng);
  std::vector<Op> mix;
  mix.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!pool.empty()) {
      mix.push_back(pool[static_cast<size_t>(Uniform(rng, static_cast<int64_t>(pool.size())))]);
    } else if (workload == "cold_checks") {
      mix.push_back(ColdOp(oracle, rng));
    } else {
      mix.push_back(ReadOp(oracle, rng));
    }
  }
  return mix;
}

/// Runs `body(op)` over the mix, cycling, until `budget_s` has passed
/// (at least once).
template <typename F>
void ForBudget(const std::vector<Op>& mix, double budget_s, F body) {
  const auto until = After(Clock::now(), budget_s);
  for (size_t i = 0; Clock::now() < until || i == 0; ++i) body(mix[i % mix.size()]);
}

template <typename T>
T MustOk(ufilter::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

void MustOk(const ufilter::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int RunLayers(const RunOptions& opts) {
  const int64_t rows = WorkloadRows(opts.workload);
  const Oracle oracle(rows);
  Tally tally;
  Properties props;
  const double budget = opts.seconds;

  // The primary, seeded through its WAL exactly as ufilter_server --wal.
  const std::string wal = opts.work_dir + "/layers.wal";
  std::unique_ptr<Database> db =
      MustOk(Database::Create(ufilter::fixtures::MakeChainSchema(kDepth)), "create");
  ufilter::relational::DurabilityOptions dopts;
  dopts.wal_path = wal;
  MustOk(db->EnableDurability(dopts), "durability");
  MustOk(ufilter::fixtures::PopulateChain(db.get(), kDepth, static_cast<int>(rows)), "seed");
  MustOk(db->PublishVersion(), "publish");
  MustOk(db->SyncWal(), "sync");
  std::unique_ptr<ufilter::check::UFilter> uf = MustOk(
      ufilter::check::UFilter::Create(db.get(), ufilter::fixtures::ChainViewQuery(kDepth)),
      "ufilter");
  ufilter::net::ServerOptions sopts;
  sopts.service.worker_threads = 2;  // ufilter_server's default
  std::unique_ptr<ufilter::net::Server> server =
      MustOk(ufilter::net::Server::Start(uf.get(), sopts), "server");

  const std::vector<Op> mix = RequestMix(opts.workload, oracle, opts.seed, 4096);

  // net: the wire round trip, one request at a time.
  std::vector<double> rt_us;
  Scrape s0 = ScrapeMetrics(server->port());
  {
    ufilter::net::ClientOptions copts;
    copts.port = server->port();
    copts.max_attempts = 1;
    copts.request_timeout = std::chrono::milliseconds(20000);
    ufilter::net::Client client(copts);
    ForBudget(mix, 0.2 * budget, [&](const Op& op) {
      const auto t = Clock::now();
      auto got = client.Check(op.text, false);
      rt_us.push_back(Micros(Clock::now() - t));
      tally.Check(op, got);
    });
  }
  Scrape s1 = ScrapeMetrics(server->port());
  const HistDelta server_latency = DeltaOf(s0, s1, "check_latency_ns");
  const HistDelta server_probe = DeltaOf(s0, s1, "stage_probe_ns");

  // service: the admission queue, a worker and the fast path, no wire.
  std::vector<double> svc_us;
  {
    auto session = server->service().OpenSession("perfbench");
    CheckOptions copts;
    copts.apply = false;
    ForBudget(mix, 0.15 * budget, [&](const Op& op) {
      const auto t = Clock::now();
      CheckReport r = server->service().Submit(session, op.text, copts).get();
      svc_us.push_back(Micros(Clock::now() - t));
      CheckReportAgainst(&tally, op, r);
    });
  }

  // ufilter Prepare from an empty plan cache: first sight of a text
  // compiles, a repeat is a lookup.
  std::vector<double> miss_us, hit_us;
  auto ctx = db->CreateContext();
  uf->plan_cache().Clear();
  const auto pc0 = uf->plan_cache().counters();
  ForBudget(mix, 0.15 * budget, [&](const Op& op) {
    ctx->PinReadSnapshot(db->OpenSnapshot());
    bool hit = false;
    const auto t = Clock::now();
    auto plan = uf->Prepare(op.text, &hit, ctx.get());
    (hit ? hit_us : miss_us).push_back(Micros(Clock::now() - t));
    ctx->ClearReadSnapshot();
  });
  const auto pc1 = uf->plan_cache().counters();
  const double lookups = static_cast<double>((pc1.hits - pc0.hits) + (pc1.misses - pc0.misses));
  const double hit_ratio = static_cast<double>(pc1.hits - pc0.hits) / lookups;
  if (hit_us.empty()) {
    // The mix repeats no text within the cache's reach: time the lookup
    // of a text right after it was cached.
    for (size_t i = 0; i < std::min<size_t>(mix.size(), 64); ++i) {
      bool hit = false;
      uf->Prepare(mix[i].text, &hit, ctx.get());
      const auto t = Clock::now();
      auto plan = uf->Prepare(mix[i].text, &hit, ctx.get());
      if (hit) hit_us.push_back(Micros(Clock::now() - t));
    }
  }

  // ufilter check and relational probes on a snapshot-pinned context.
  std::vector<double> snap_us, check_us, anchor_us, victim_us, anchor_rows;
  double lookups_total = 0, examined_total = 0;
  int64_t escalated = 0, probe_errors = 0;
  CheckOptions ro;
  ro.apply = false;
  ForBudget(mix, 0.2 * budget, [&](const Op& op) {
    auto plan = uf->Prepare(op.text, nullptr, ctx.get());
    auto t = Clock::now();
    auto snapshot = db->OpenSnapshot();
    snap_us.push_back(Micros(Clock::now() - t));
    ctx->PinReadSnapshot(std::move(snapshot));
    const auto w0 = db->SnapshotWorkCounters();
    t = Clock::now();
    std::optional<CheckReport> r = uf->TryCheckReadOnly(*plan, ro, ctx.get());
    check_us.push_back(Micros(Clock::now() - t));
    const auto w = db->SnapshotWorkCounters().DiffSince(w0);
    lookups_total += static_cast<double>(w.index_lookups);
    examined_total += static_cast<double>(w.rows_scanned + w.columnar_scan_rows);
    if (r.has_value()) {
      CheckReportAgainst(&tally, op, *r);
    } else {
      ++escalated;
    }
    ufilter::relational::QueryEvaluator eval(db.get(), ctx.get());
    for (const auto& action : plan->actions()) {
      if (action.probes.anchor.plan != nullptr) {
        t = Clock::now();
        auto res = eval.ExecutePlan(*action.probes.anchor.plan);
        anchor_us.push_back(Micros(Clock::now() - t));
        if (!res.ok()) ++probe_errors;
        anchor_rows.push_back(res.ok() ? static_cast<double>(res->merged.rows.size()) : 0);
      }
      if (action.probes.victim.plan != nullptr) {
        t = Clock::now();
        auto res = eval.ExecutePlan(*action.probes.victim.plan);
        victim_us.push_back(Micros(Clock::now() - t));
        if (!res.ok()) ++probe_errors;
      }
    }
    ctx->ClearReadSnapshot();
  });
  props.Expect(escalated == 0, "every check-only request took the read-only path (" +
                                   std::to_string(escalated) + " escalated)");
  props.Expect(probe_errors == 0, "every compiled probe plan executed (" +
                                      std::to_string(probe_errors) + " errors)");

  // Replication: a follower bootstrapped from the primary's WAL stream.
  std::unique_ptr<Database> fdb =
      MustOk(Database::Create(ufilter::fixtures::MakeChainSchema(kDepth)), "follower create");
  std::unique_ptr<ufilter::check::UFilter> fuf = MustOk(
      ufilter::check::UFilter::Create(fdb.get(), ufilter::fixtures::ChainViewQuery(kDepth)),
      "follower ufilter");
  ufilter::net::ServerOptions fsopts = sopts;
  fsopts.redirect_primary = "127.0.0.1:0";
  std::unique_ptr<ufilter::net::Server> fserver =
      MustOk(ufilter::net::Server::Start(fuf.get(), fsopts), "follower server");
  ufilter::net::ReplicationSourceOptions ropts;
  ropts.wal_path = wal;
  std::unique_ptr<ufilter::net::ReplicationSource> source = MustOk(
      ufilter::net::ReplicationSource::Start(db.get(), &server->service().registry(), ropts),
      "replication source");
  ufilter::net::FollowerOptions fopts;
  fopts.port = source->port();
  std::unique_ptr<ufilter::net::Follower> follower =
      ufilter::net::Follower::Start(&fserver->service(), fdb.get(), fopts);
  props.Expect(follower->WaitForEpoch(db->commit_epoch(), std::chrono::seconds(60)),
               "follower bootstrapped to the primary's epoch");
  Scrape f0 = ScrapeMetrics(fserver->port());

  // ufilter apply and relational commit: the write_mix apply stream.
  std::vector<double> apply_us, commit_us;
  const auto wal0 = db->SnapshotWorkCounters();
  {
    auto actx = db->CreateContext();
    ApplyPlanner planner(oracle, opts.seed);
    std::deque<int64_t> deletable;
    CheckOptions ap;
    const auto until = After(Clock::now(), 0.2 * budget);
    for (int64_t i = 0; i < 4 * rows && (Clock::now() < until || i == 0); ++i) {
      int64_t del = -1;
      if (i % 10 >= 8 && !deletable.empty()) {
        del = deletable.front();
        deletable.pop_front();
      }
      Apply a = planner.Next(i, del);
      auto plan = uf->Prepare(a.op.text, nullptr, actx.get());
      auto guard = std::make_unique<Database::WriterGuard>(db.get());
      auto t = Clock::now();
      CheckReport r = uf->Execute(*plan, ap, actx.get());
      apply_us.push_back(Micros(Clock::now() - t));
      if (r.outcome != CheckOutcome::kExecuted) guard->AbandonPublish();
      t = Clock::now();
      guard.reset();
      commit_us.push_back(Micros(Clock::now() - t));
      if (CheckReportAgainst(&tally, a.op, r) && a.kind == ApplyKind::kInsert) {
        deletable.push_back(a.key);
      }
    }
  }
  const auto wal1 = db->SnapshotWorkCounters().DiffSince(wal0);
  const auto applied = Clock::now();
  const bool caught_up = follower->WaitForEpoch(db->commit_epoch(), std::chrono::seconds(60));
  const double catchup_ms = Micros(Clock::now() - applied) / 1000.0;
  props.Expect(caught_up, "follower caught up with the apply stream");
  Scrape f1 = ScrapeMetrics(fserver->port());
  const HistDelta repl_apply = DeltaOf(f0, f1, "repl_apply_ns");
  follower->Stop();
  source->Stop();
  fserver->Drain();
  server->Drain();

  // Cross-checks between the server's own timings and the client's.
  const double rt_p50 = Quantile(rt_us, 0.5);
  props.Expect(server_latency.MedianLowerEdgeNs() / 1000.0 <= rt_p50,
               "server check_latency_ns p50 bucket starts at " +
                   std::to_string(server_latency.MedianLowerEdgeNs() / 1000.0) +
                   " us <= client round-trip p50 " + std::to_string(rt_p50) + " us");
  const double probe_mean = server_probe.MeanNs() / 1000.0;
  const double check_mean = Mean(check_us);
  props.Expect(probe_mean >= check_mean / 3 && probe_mean <= check_mean * 3,
               "server mean stage_probe_ns " + std::to_string(probe_mean) +
                   " us within 3x of in-process ufilter.check_us " +
                   std::to_string(check_mean) + " us");

  const double checks = static_cast<double>(check_us.size());
  const std::vector<Metric> out = {
      {"net.roundtrip_us", Mean(rt_us), "us"},
      {"server.check_latency_us", server_latency.MeanNs() / 1000.0, "us"},
      {"server.stage_probe_us", probe_mean, "us"},
      {"service.check_us", Mean(svc_us), "us"},
      {"ufilter.prepare_miss_us", Mean(miss_us), "us"},
      {"ufilter.prepare_hit_us", Mean(hit_us), "us"},
      {"plan_cache.hit_ratio", hit_ratio, "ratio"},
      {"ufilter.check_us", check_mean, "us"},
      {"relational.open_snapshot_us", Mean(snap_us), "us"},
      {"relational.anchor_probe_us", Mean(anchor_us), "us"},
      {"relational.victim_probe_us", Mean(victim_us), "us"},
      {"relational.anchor_rows_per_check", Mean(anchor_rows), "rows"},
      {"relational.index_lookups_per_check", lookups_total / checks, "count"},
      {"relational.rows_examined_per_check", examined_total / checks, "rows"},
      {"ufilter.apply_us", Mean(apply_us), "us"},
      {"relational.commit_us", Mean(commit_us), "us"},
      {"wal.fsyncs_per_commit",
       wal1.wal_records == 0 ? 0
                             : static_cast<double>(wal1.wal_fsyncs) /
                                   static_cast<double>(wal1.wal_records),
       "fsyncs/commit"},
      {"repl.apply_us", repl_apply.MeanNs() / 1000.0, "us"},
      {"repl.catchup_ms", catchup_ms, "ms"},
  };
  std::printf("# %s traced: %zu round trips, %zu service calls, %zu prepares "
              "(%zu miss), %zu checks, %zu applies at %lld rows/level\n",
              opts.workload.c_str(), rt_us.size(), svc_us.size(),
              miss_us.size() + hit_us.size(), miss_us.size(), check_us.size(),
              apply_us.size(), static_cast<long long>(rows));
  ReportFailures(tally);
  PrintResult(props.ok && tally.failed == 0, tally, out);
  return 0;
}

}  // namespace perfbench
