// Shared plumbing of the benchmark's two modes: run options, sample sets,
// verdict checks, metric scrapes and the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory of the ufilter_server binary's build (e2e mode).
  std::string server_bin;
  /// Scratch directory for WAL files; removed by the caller.
  std::string work_dir;
  /// --rows of the server when it differs from the oracle's (the
  /// self-test starts a server seeded with another row count).
  int64_t server_rows = 0;
  /// Offered check rate of an open-loop sweep point (0 = the workload's
  /// closed loops; check-only workloads only).
  double rate = 0;
  int nproc = 1;
};

/// Rows per level of each workload's chain.
inline int64_t WorkloadRows(const std::string& workload) {
  return workload == "hot_checks" || workload == "cold_checks" ? 200 : 20000;
}

inline bool KnownWorkload(const std::string& w) {
  return w == "hot_checks" || w == "cold_checks" ||
         w == "large_view_deletes" || w == "write_mix";
}

/// Operation tally shared by the threads of a run.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> first_failures;

  /// Records one answered or unanswered operation against its expectation.
  bool Check(const Op& op, const ufilter::Result<ufilter::net::CheckResponseMsg>& got) {
    ++attempted;
    std::string why;
    if (!got.ok()) {
      why = "transport: " + got.status().ToString();
    } else if (got->verdict != op.verdict || got->rows_affected != op.rows) {
      why = std::string("got ") + ufilter::net::VerdictName(got->verdict) +
            "/" + std::to_string(got->rows_affected) + " want " +
            ufilter::net::VerdictName(op.verdict) + "/" +
            std::to_string(op.rows) + " (" + got->message + ")";
    }
    if (why.empty()) return true;
    Fail(why + " for:\n" + op.text);
    return false;
  }

  void Fail(const std::string& why) {
    ++failed;
    std::lock_guard<std::mutex> lock(mu);
    if (first_failures.size() < 3) first_failures.push_back(why);
  }
};

/// Property checks that are not single operations (epoch accounting,
/// read-back totals, cross-checks). Any failure makes the run incorrect.
struct Properties {
  bool ok = true;
  void Expect(bool cond, const std::string& what) {
    std::printf("# property %s: %s\n", cond ? "ok" : "FAILED", what.c_str());
    ok = ok && cond;
  }
};

/// Sorted-sample quantile (nearest rank).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Scraped registry of one server.
struct Scrape {
  bool ok = false;
  ufilter::net::MetricsMsg msg;

  uint64_t Value(const std::string& name) const {
    const ufilter::net::WireMetric* m = msg.Find(name);
    return m == nullptr ? 0 : m->value;
  }
  const ufilter::net::WireMetric* Hist(const std::string& name) const {
    return msg.Find(name);
  }
};

inline Scrape ScrapeMetrics(uint16_t port) {
  ufilter::net::ClientOptions copts;
  copts.port = port;
  copts.request_timeout = std::chrono::milliseconds(20000);
  ufilter::net::Client client(copts);
  Scrape s;
  auto m = client.Metrics();
  if (m.ok()) {
    s.ok = true;
    s.msg = std::move(*m);
  }
  return s;
}

/// Bucket counts of histogram `name` in `after` minus those in `before`.
struct HistDelta {
  std::vector<uint64_t> buckets = std::vector<uint64_t>(ufilter::obs::kHistogramBuckets, 0);
  uint64_t count = 0;
  uint64_t sum = 0;

  double MeanNs() const {
    return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Inclusive lower edge (ns) of the bucket holding the median sample.
  double MedianLowerEdgeNs() const {
    uint64_t need = (count + 1) / 2, seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen >= need) {
        return i == 0 ? 0.0
                      : static_cast<double>(ufilter::obs::HistogramBucketBound(i - 1));
      }
    }
    return 0;
  }
};

inline HistDelta DeltaOf(const Scrape& before, const Scrape& after,
                         const std::string& name) {
  HistDelta d;
  // Counters only grow, so after - before never underflows.
  if (const ufilter::net::WireMetric* m = after.Hist(name)) {
    d.count = m->hist_count;
    d.sum = m->hist_sum;
    for (const auto& [idx, n] : m->hist_buckets) d.buckets[idx] += n;
  }
  if (const ufilter::net::WireMetric* m = before.Hist(name)) {
    d.count -= m->hist_count;
    d.sum -= m->hist_sum;
    for (const auto& [idx, n] : m->hist_buckets) d.buckets[idx] -= n;
  }
  return d;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result object as the last line of standard output.
inline void PrintResult(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted.load()),
              static_cast<long long>(tally.failed.load()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

inline void ReportFailures(const Tally& tally) {
  for (const std::string& f : tally.first_failures) {
    std::fprintf(stderr, "failed operation: %s\n", f.c_str());
  }
}

int RunEndToEnd(const RunOptions& opts);
int RunLayers(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
