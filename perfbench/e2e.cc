// End-to-end mode: runs the real ufilter_server (and, for write_mix, a
// follower) as child processes on loopback and drives one workload from
// this process, checking every answer against the oracle.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "harness.h"
#include "net/socket.h"

namespace perfbench {
namespace {

using ufilter::net::CheckRequestMsg;
using ufilter::net::CheckResponseMsg;
using ufilter::net::Client;
using ufilter::net::ClientOptions;

constexpr auto kRequestTimeout = std::chrono::milliseconds(20000);

ClientOptions ClientFor(uint16_t port) {
  ClientOptions c;
  c.port = port;
  c.request_timeout = kRequestTimeout;
  c.connect_timeout = std::chrono::milliseconds(5000);
  // No silent retries: every transport failure is a failed operation.
  c.max_attempts = 1;
  return c;
}

/// A ufilter_server child process. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `bin args...` and waits until it prints READY (and REPL when
  /// `want_repl`).
  bool Start(const std::string& bin, const std::vector<std::string>& args,
             bool want_repl, double timeout_s) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string buf;
    const auto deadline = After(Clock::now(), timeout_s);
    while (Clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      char tmp[256];
      ssize_t n = ::read(out_fd_, tmp, sizeof(tmp));
      if (n <= 0) return false;  // exited before READY
      buf.append(tmp, static_cast<size_t>(n));
      std::istringstream lines(buf);
      std::string word;
      unsigned value = 0;
      bool ready = false;
      while (lines >> word >> value) {
        if (word == "REPL") repl_port_ = static_cast<uint16_t>(value);
        if (word == "READY") {
          port_ = static_cast<uint16_t>(value);
          ready = true;
        }
      }
      if (ready && (!want_repl || repl_port_ != 0)) return true;
    }
    return false;
  }

  /// SIGTERM (graceful drain) and reap; the exit status, or -1 when it had
  /// to be killed.
  int Stop(double timeout_s) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    const auto deadline = After(Clock::now(), timeout_s);
    int status = 0;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        CloseOut();
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
    return -1;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    CloseOut();
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t repl_port() const { return repl_port_; }

 private:
  void CloseOut() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t repl_port_ = 0;
};

/// user+system CPU seconds of `pid` so far (/proc/<pid>/stat).
double CpuSeconds(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::vector<std::string> tok;
  std::string t;
  while (rest >> t) tok.push_back(t);
  if (tok.size() < 13) return 0;
  // Fields 14 (utime) and 15 (stime); tok[0] is field 3.
  const double ticks = std::stod(tok[11]) + std::stod(tok[12]);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  return 0;
}

/// Waits until a fresh client's ping round-trips (the server serves).
bool WaitServing(uint16_t port, double timeout_s) {
  const auto deadline = After(Clock::now(), timeout_s);
  while (Clock::now() < deadline) {
    Client c(ClientFor(port));
    if (c.Ping().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::vector<std::string> ServerArgs(int64_t rows) {
  return {"--depth=" + std::to_string(kDepth), "--rows=" + std::to_string(rows)};
}

/// The requests of a run completed inside the measurement window.
struct LoopSamples {
  std::vector<double> latency_us;
  /// Completion time of each sample, seconds after the window opened.
  std::vector<double> end_s;
};

/// Closed loop on one connection: send, wait for the answer, check it,
/// repeat until `until`. Only requests inside [from, until] are timed.
void ClosedLoop(uint16_t port, const std::function<Op(Rng&)>& next, Rng rng,
                Clock::time_point from, Clock::time_point until, Tally* tally,
                LoopSamples* out) {
  Client client(ClientFor(port));
  while (true) {
    const auto start = Clock::now();
    if (start >= until) break;
    Op op = next(rng);
    auto got = client.Check(op.text, /*apply=*/false);
    const auto end = Clock::now();
    const bool ok = tally->Check(op, got);
    if (ok && start >= from && end <= until) {
      out->latency_us.push_back(Micros(end - start));
      out->end_s.push_back(Seconds(end - from));
    }
    if (!got.ok()) break;  // the connection is gone; the run has failed
  }
}

/// Runs `conns` closed loops (this thread runs one); loop c draws from rng
/// stream `stream + c` of the seed.
LoopSamples RunClosedLoops(uint16_t port, int conns,
                           const std::function<Op(Rng&)>& next, uint64_t seed,
                           uint64_t stream, Clock::time_point from,
                           Clock::time_point until, Tally* tally) {
  std::vector<LoopSamples> samples(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 1; c < conns; ++c) {
    threads.emplace_back(ClosedLoop, port, std::cref(next), MakeRng(seed, stream + c),
                         from, until, tally, &samples[static_cast<size_t>(c)]);
  }
  ClosedLoop(port, next, MakeRng(seed, stream), from, until, tally, &samples[0]);
  for (auto& t : threads) t.join();
  LoopSamples all;
  for (auto& s : samples) {
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(), s.latency_us.end());
    all.end_s.insert(all.end_s.end(), s.end_s.begin(), s.end_s.end());
  }
  return all;
}

/// Warm-up: the workload's closed loops for `seconds`, checked but not
/// timed (fills the plan cache; the first snapshot publishes the seed).
void WarmUp(uint16_t port, int conns, const std::function<Op(Rng&)>& next,
            uint64_t seed, double seconds, Tally* tally) {
  const auto end = After(Clock::now(), seconds);
  RunClosedLoops(port, conns, next, seed, 200, end, end, tally);
}

/// Completions per one-second slice of the window (a progress trace).
void PrintSlices(const LoopSamples& s, double window_s) {
  std::vector<int64_t> per(static_cast<size_t>(std::max(1.0, window_s)), 0);
  for (double t : s.end_s) {
    size_t i = static_cast<size_t>(t);
    if (i < per.size()) ++per[i];
  }
  std::printf("# completions per second:");
  for (int64_t n : per) std::printf(" %lld", static_cast<long long>(n));
  std::printf("\n");
}

/// 1 s, or a tenth of a short run.
double WarmupSeconds(const RunOptions& opts) { return std::min(1.0, 0.1 * opts.seconds); }

std::vector<Metric> CheckMetrics(double setup_s, const std::vector<double>& lat,
                                 double window_s, double cpu_s, int64_t ops,
                                 double rss_mb) {
  return {
      {"setup_s", setup_s, "s"},
      {"check_throughput", static_cast<double>(lat.size()) / window_s, "checks/s"},
      {"check_p50_us", Quantile(lat, 0.50), "us"},
      {"check_p99_us", Quantile(lat, 0.99), "us"},
      {"server_cpu_us_per_op", ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0, "us"},
      {"server_peak_rss_mb", rss_mb, "MB"},
  };
}

// --- Open loop -----------------------------------------------------------------

/// One pipelined connection speaking the frame protocol directly, so the
/// open-loop sender never waits for an answer before the next send.
class PipelinedConn {
 public:
  ~PipelinedConn() { ufilter::net::CloseFd(fd_); }

  bool Connect(uint16_t port) {
    auto fd = ufilter::net::ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(5000));
    if (!fd.ok()) return false;
    fd_ = *fd;
    return ufilter::net::SendAll(fd_, ufilter::net::kNetMagic, ufilter::net::kNetMagicLen,
                                 Clock::now() + kRequestTimeout)
        .ok();
  }

  bool Send(uint64_t id, bool apply, const std::string& text) {
    CheckRequestMsg req;
    req.request_id = id;
    req.deadline_ms = static_cast<uint32_t>(kRequestTimeout.count());
    req.apply = apply;
    req.update_text = text;
    std::string frame = ufilter::net::FramePayload(ufilter::net::EncodeCheckRequest(req));
    return ufilter::net::SendAll(fd_, frame.data(), frame.size(), Clock::now() + kRequestTimeout)
        .ok();
  }

  /// The next response, waiting until `deadline`.
  ufilter::Result<CheckResponseMsg> Receive(Clock::time_point deadline) {
    while (true) {
      auto next = reader_.Next();
      if (!next.ok()) return next.status();
      if (next->has_value()) return ufilter::net::DecodeCheckResponse(**next);
      char buf[4096];
      auto n = ufilter::net::RecvSome(fd_, buf, sizeof(buf), deadline);
      if (!n.ok()) return n.status();
      reader_.Feed(buf, *n);
    }
  }

 private:
  int fd_ = -1;
  ufilter::net::FrameReader reader_;
};

/// Open loop on one pipelined connection: request i is due at
/// from + i / rate whatever became of the earlier ones, and is timed from
/// that intended send time, so a stall is charged to every request queued
/// behind it. `next(i)` plans request i (T carries its `op`); `acked` sees
/// each answer that matched the oracle, in request order. The sender runs
/// on its own thread, answers are read on the calling one. `late_us` gets
/// how late each send left against its intended time.
template <typename T>
bool OpenLoop(uint16_t port, bool apply, double rate, Clock::time_point from,
              Clock::time_point until, const std::function<T(int64_t)>& next,
              const std::function<void(const T&, double, Clock::time_point)>& acked,
              std::vector<double>* late_us, Tally* tally) {
  PipelinedConn conn;
  if (!conn.Connect(port)) return false;
  struct Pending {
    uint64_t id;
    Clock::time_point intended;
    T item;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool sender_done = false;
  std::thread sender([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    for (int64_t i = 0;; ++i) {
      const auto intended = from + period * i;
      if (intended >= until) break;
      std::this_thread::sleep_until(intended);
      T item = next(i);
      const std::string text = item.op.text;
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back({static_cast<uint64_t>(i + 1), intended, std::move(item)});
        late_us->push_back(Micros(Clock::now() - intended));
      }
      cv.notify_one();
      if (!conn.Send(static_cast<uint64_t>(i + 1), apply, text)) break;
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });
  while (true) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sender_done || !pending.empty(); });
      if (pending.empty()) break;
      p = std::move(pending.front());
      pending.pop_front();
    }
    auto got = conn.Receive(Clock::now() + kRequestTimeout);
    const auto now = Clock::now();
    if (got.ok() && got->request_id != p.id) {
      got = ufilter::Status::Internal("response out of order");
    }
    if (tally->Check(p.item.op, got)) {
      acked(p.item, Micros(now - p.intended), now);
    } else if (!got.ok()) {
      // The connection is unusable: every request still queued fails too.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sender_done; });
      for (auto& rest : pending) tally->Check(rest.item.op, got);
      pending.clear();
      break;
    }
  }
  sender.join();
  return true;
}

// --- Check-only workloads ----------------------------------------------------

int RunCheckOnly(const RunOptions& opts) {
  const int64_t rows = WorkloadRows(opts.workload);
  const Oracle oracle(rows);
  const int64_t server_rows = opts.server_rows > 0 ? opts.server_rows : rows;
  Tally tally;
  Properties props;

  std::function<Op(Rng&)> next;
  std::vector<Op> pool;
  Rng pool_rng = MakeRng(opts.seed, 1);
  if (opts.workload == "hot_checks") {
    pool = HotPool(oracle, pool_rng);
  } else if (opts.workload == "large_view_deletes") {
    pool = LargeDeletePool(oracle, pool_rng);
  }
  if (pool.empty()) {
    next = [&oracle](Rng& rng) { return ColdOp(oracle, rng); };
  } else {
    next = [&pool](Rng& rng) { return pool[static_cast<size_t>(Uniform(rng, static_cast<int64_t>(pool.size())))]; };
  }
  const int conns = std::max(1, std::min(3, opts.nproc));

  const auto t0 = Clock::now();
  ServerProcess server;
  if (!server.Start(opts.server_bin, ServerArgs(server_rows), false, 120) ||
      !WaitServing(server.port(), 30)) {
    std::fprintf(stderr, "server did not start\n");
    return 1;
  }
  const double setup_s = Seconds(Clock::now() - t0);

  WarmUp(server.port(), conns, next, opts.seed, WarmupSeconds(opts), &tally);
  // After the warm-up: its first snapshot published the seed (epoch 0 -> 1),
  // which is set-up, not check traffic.
  const Scrape before = ScrapeMetrics(server.port());
  const double cpu0 = CpuSeconds(server.pid());
  const auto from = Clock::now();
  const auto until = After(from, opts.seconds);
  LoopSamples timed;
  if (opts.rate > 0) {
    // One point of the offered-load sweep: an open loop on one pipelined
    // connection instead of the closed loops.
    struct Item {
      Op op;
    };
    Rng rng = MakeRng(opts.seed, 100);
    std::vector<double> late;
    const std::function<Item(int64_t)> plan = [&](int64_t) { return Item{next(rng)}; };
    const std::function<void(const Item&, double, Clock::time_point)> acked =
        [&](const Item&, double latency_us, Clock::time_point now) {
          if (now > until) return;
          timed.latency_us.push_back(latency_us);
          timed.end_s.push_back(Seconds(now - from));
        };
    if (!OpenLoop<Item>(server.port(), false, opts.rate, from, until, plan, acked, &late, &tally)) {
      tally.Fail("sweep connection failed");
    }
    std::printf("# offered %.0f/s: generator lateness p50 %.1f us, max %.1f us\n", opts.rate,
                Quantile(late, 0.5), Quantile(late, 1.0));
  } else {
    timed = RunClosedLoops(server.port(), conns, next, opts.seed, 100, from, until, &tally);
  }
  const std::vector<double>& lat = timed.latency_us;
  PrintSlices(timed, opts.seconds);
  const double cpu_s = CpuSeconds(server.pid()) - cpu0;
  Scrape after = ScrapeMetrics(server.port());
  const double rss = PeakRssMb(server.pid());

  props.Expect(before.ok && after.ok, "metrics scrapes answered");
  props.Expect(before.Value("db_commit_epoch") == after.Value("db_commit_epoch"),
               "check-only traffic left db_commit_epoch at " +
                   std::to_string(before.Value("db_commit_epoch")) + " (now " +
                   std::to_string(after.Value("db_commit_epoch")) + ")");
  props.Expect(before.Value("wal_records") == after.Value("wal_records"),
               "check-only traffic appended no WAL record");
  props.Expect(server.Stop(30) == 0, "server drained and exited 0");

  std::printf("# %s: %zu timed checks over %.1f s, %s (%lld checked)\n",
              opts.workload.c_str(), lat.size(), opts.seconds,
              opts.rate > 0 ? "open loop on 1 pipelined connection"
                            : ("closed loop on " + std::to_string(conns) + " connections").c_str(),
              static_cast<long long>(tally.attempted.load()));
  ReportFailures(tally);
  PrintResult(props.ok && tally.failed == 0, tally,
              CheckMetrics(setup_s, lat, opts.seconds, cpu_s,
                           static_cast<int64_t>(lat.size()), rss));
  return 0;
}

// --- write_mix -----------------------------------------------------------------

/// What the client saw acknowledged: the write_mix state model.
struct WriteModel {
  std::mutex mu;
  int64_t executed = 0;
  std::map<std::pair<int, int64_t>, std::string> values;  // (level, key) -> value
  std::map<int64_t, int64_t> live_inserts;                 // key -> parent
  std::map<int64_t, int64_t> deleted_inserts;              // key -> parent
  std::deque<int64_t> deletable;                           // acked, unsampled
  std::vector<double> apply_us;                            // from intended send
  std::vector<double> late_us;                             // written by OpenLoop
};

struct Sample {
  int64_t key = 0;
  int64_t parent = 0;
  Clock::time_point acked;
};

/// Sampled inserts awaiting their follower visibility poll.
struct SampleQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sample> q;
  bool closed = false;
};

int RunWriteMix(const RunOptions& opts) {
  const int64_t rows = WorkloadRows(opts.workload);
  const Oracle oracle(rows);
  const int64_t server_rows = opts.server_rows > 0 ? opts.server_rows : rows;
  Tally tally;
  Properties props;
  const std::string wal = opts.work_dir + "/primary.wal";
  const std::string fwal = opts.work_dir + "/follower.wal";
  // 20 applies/s. An apply holds the writer lane for about 4-10 ms at
  // 20,000 rows/level (copy-on-write of its table, WAL append), and a read
  // that queues behind one waits milliseconds. At 40/s about 1% of reads
  // do, which puts the reads' p99 on the edge between the two modes and
  // makes it jump between runs; at 20/s it stays in the fast mode. At
  // 100/s the lane saturates and reads starve.
  const double rate = 20;

  const auto t0 = Clock::now();
  ServerProcess primary, follower;
  std::vector<std::string> pargs = ServerArgs(server_rows);
  pargs.push_back("--wal=" + wal);
  pargs.push_back("--repl-port=0");
  if (!primary.Start(opts.server_bin, pargs, true, 120) || !WaitServing(primary.port(), 30)) {
    std::fprintf(stderr, "primary did not start\n");
    return 1;
  }
  std::vector<std::string> fargs = {"--depth=" + std::to_string(kDepth),
                                    "--wal=" + fwal,
                                    "--follow=127.0.0.1:" + std::to_string(primary.repl_port())};
  if (!follower.Start(opts.server_bin, fargs, false, 120)) {
    std::fprintf(stderr, "follower did not start\n");
    return 1;
  }
  // No read reaches the follower before its bootstrap has loaded: a read
  // that arrives first publishes an empty epoch and the bootstrap is then
  // refused (see perfbench/README.md). Only metric scrapes are sent here.
  const uint64_t seed_epoch = ScrapeMetrics(primary.port()).Value("db_commit_epoch");
  bool caught_up = false;
  for (auto deadline = After(Clock::now(), 120); Clock::now() < deadline;) {
    Scrape f = ScrapeMetrics(follower.port());
    if (f.Value("repl_snapshots_loaded") >= 1 && f.Value("db_commit_epoch") == seed_epoch) {
      caught_up = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!caught_up) {
    std::fprintf(stderr, "follower never reached the primary's epoch\n");
    return 1;
  }
  const double setup_s = Seconds(Clock::now() - t0);

  WriteModel model;
  SampleQueue samples;
  std::vector<double> visible_ms;
  int64_t polls = 0;
  // The applier, its sender and the follower poller take three threads;
  // this one reads.
  const int readers = std::max(1, opts.nproc - 3);
  const std::function<Op(Rng&)> next = [&oracle](Rng& rng) { return ReadOp(oracle, rng); };
  WarmUp(primary.port(), readers, next, opts.seed, WarmupSeconds(opts), &tally);
  const double cpu0 = CpuSeconds(primary.pid()) + CpuSeconds(follower.pid());
  const auto from = Clock::now();
  const auto until = After(from, opts.seconds);

  std::thread applier([&] {
    ApplyPlanner planner(oracle, opts.seed);
    auto plan = [&](int64_t i) {
      int64_t deletable = -1;
      std::lock_guard<std::mutex> lock(model.mu);
      if (i % 10 >= 8 && !model.deletable.empty()) {
        deletable = model.deletable.front();
        model.deletable.pop_front();
      }
      return planner.Next(i, deletable);
    };
    auto acked = [&](const Apply& a, double latency_us, Clock::time_point now) {
      bool sampled = false;
      {
        std::lock_guard<std::mutex> lock(model.mu);
        ++model.executed;
        model.apply_us.push_back(latency_us);
        switch (a.kind) {
          case ApplyKind::kReplace:
            model.values[{a.level, a.key}] = a.value;
            break;
          case ApplyKind::kInsert:
            model.live_inserts[a.key] = a.parent;
            if (a.sampled) {
              sampled = true;
            } else {
              model.deletable.push_back(a.key);
            }
            break;
          case ApplyKind::kDelete:
            model.deleted_inserts[a.key] = model.live_inserts[a.key];
            model.live_inserts.erase(a.key);
            break;
        }
      }
      if (sampled) {
        std::lock_guard<std::mutex> lock(samples.mu);
        samples.q.push_back({a.key, a.parent, now});
        samples.cv.notify_one();
      }
    };
    if (!OpenLoop<Apply>(primary.port(), /*apply=*/true, rate, from, until, plan, acked,
                         &model.late_us, &tally)) {
      tally.Fail("apply connection failed");
    }
    std::lock_guard<std::mutex> lock(samples.mu);
    samples.closed = true;
    samples.cv.notify_one();
  });

  // The follower poller: a check-only insert of the sampled key answers
  // data-conflict once the follower holds the row.
  std::thread poller([&] {
    Client client(ClientFor(follower.port()));
    while (true) {
      Sample s;
      {
        std::unique_lock<std::mutex> lock(samples.mu);
        samples.cv.wait(lock, [&] { return samples.closed || !samples.q.empty(); });
        if (samples.q.empty()) break;
        s = samples.q.front();
        samples.q.pop_front();
      }
      const Op visible{InsertText(kDepth - 2, s.parent, s.key, "poll"), Verdict::kDataConflict, 0};
      const Op not_yet{visible.text, Verdict::kExecuted, 1};
      const auto deadline = After(Clock::now(), 10);
      bool seen = false;
      while (Clock::now() < deadline) {
        auto got = client.Check(visible.text, false);
        ++polls;
        if (got.ok() && got->verdict == visible.verdict && got->rows_affected == 0) {
          visible_ms.push_back(Micros(Clock::now() - s.acked) / 1000.0);
          seen = true;
          break;
        }
        if (!got.ok() || got->verdict != not_yet.verdict || got->rows_affected != 1) {
          tally.Check(visible, got);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (seen) {
        ++tally.attempted;
      } else if (Clock::now() >= deadline) {
        ++tally.attempted;
        tally.Fail("follower never showed insert of key " + std::to_string(s.key));
      }
    }
  });

  LoopSamples timed = RunClosedLoops(primary.port(), readers, next, opts.seed, 100, from, until, &tally);
  const std::vector<double>& lat = timed.latency_us;
  PrintSlices(timed, opts.seconds);
  applier.join();
  const double cpu_s = CpuSeconds(primary.pid()) + CpuSeconds(follower.pid()) - cpu0;
  poller.join();
  const double rss = PeakRssMb(primary.pid());

  // Epoch accounting: one commit epoch per executed apply, on both nodes.
  const uint64_t primary_epoch = ScrapeMetrics(primary.port()).Value("db_commit_epoch");
  props.Expect(primary_epoch == seed_epoch + static_cast<uint64_t>(model.executed),
               "primary epoch " + std::to_string(primary_epoch) + " = seed epoch " +
                   std::to_string(seed_epoch) + " + " + std::to_string(model.executed) +
                   " executed applies");
  uint64_t follower_epoch = 0;
  for (auto deadline = After(Clock::now(), 30); Clock::now() < deadline;) {
    follower_epoch = ScrapeMetrics(follower.port()).Value("db_commit_epoch");
    if (follower_epoch == primary_epoch) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  props.Expect(follower_epoch == primary_epoch,
               "follower epoch " + std::to_string(follower_epoch) + " = primary epoch");
  props.Expect(follower.Stop(30) == 0, "follower drained and exited 0");
  props.Expect(primary.Stop(60) == 0, "primary drained and exited 0");

  // Restart the drained primary on its WAL.
  const auto r0 = Clock::now();
  ServerProcess restarted;
  if (!restarted.Start(opts.server_bin,
                       {"--depth=" + std::to_string(kDepth), "--wal=" + wal}, false, 120) ||
      !WaitServing(restarted.port(), 30)) {
    std::fprintf(stderr, "restart on the WAL failed\n");
    return 1;
  }
  const double recovery_s = Seconds(Clock::now() - r0);
  props.Expect(ScrapeMetrics(restarted.port()).Value("db_commit_epoch") == primary_epoch,
               "recovered epoch = epoch at drain");

  // Read back every acknowledged write through check-only probes.
  int64_t readback = 0;
  {
    Client client(ClientFor(restarted.port()));
    auto probe = [&](const Op& op) {
      ++readback;
      tally.Check(op, client.Check(op.text, false));
    };
    for (const auto& [lk, value] : model.values) {
      probe({GuardedReplaceText(lk.first, lk.second, value, "readback"), Verdict::kExecuted, 1});
    }
    for (const auto& [key, parent] : model.live_inserts) {
      probe({InsertText(kDepth - 2, parent, key, "readback"), Verdict::kDataConflict, 0});
    }
    for (const auto& [key, parent] : model.deleted_inserts) {
      probe({InsertText(kDepth - 2, parent, key, "readback"), Verdict::kExecuted, 1});
    }
  }
  props.Expect(restarted.Stop(30) == 0, "restarted primary drained and exited 0");

  const int64_t applies = static_cast<int64_t>(model.apply_us.size());
  std::printf("# write_mix: %lld applies at %.0f/s (open loop, pipelined), %zu timed checks on %d "
              "reader connection(s), %lld follower polls, %lld read-back probes\n",
              static_cast<long long>(applies), rate, lat.size(), readers,
              static_cast<long long>(polls), static_cast<long long>(readback));
  std::printf("# write_mix: apply_p50_us %.1f apply_p99_us %.1f (from intended send time; n=%lld)\n",
              Quantile(model.apply_us, 0.5), Quantile(model.apply_us, 0.99),
              static_cast<long long>(applies));
  std::printf("# write_mix: generator lateness p50 %.1f us, max %.1f us\n",
              Quantile(model.late_us, 0.5), Quantile(model.late_us, 1.0));
  std::printf("# write_mix: replica_visible_p50_ms %.3f (n=%zu), recovery_s %.3f\n",
              Quantile(visible_ms, 0.5), visible_ms.size(), recovery_s);
  props.Expect(!visible_ms.empty(), "sampled applies became visible on the follower");
  ReportFailures(tally);
  PrintResult(props.ok && tally.failed == 0, tally,
              CheckMetrics(setup_s, lat, opts.seconds, cpu_s,
                           static_cast<int64_t>(lat.size()) + applies + polls, rss));
  return 0;
}

}  // namespace

int RunEndToEnd(const RunOptions& opts) {
  return opts.workload == "write_mix" ? RunWriteMix(opts) : RunCheckOnly(opts);
}

}  // namespace perfbench
