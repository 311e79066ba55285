// perfbench: the wire-to-probe benchmark of the U-Filter server.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server-bin PATH --work-dir DIR [--server-rows N] [--rate R]
//
// --trace 0 runs the workload end to end against ufilter_server child
// processes; --trace 1 runs the per-layer traced replay in this process.
// The last line of standard output is the result object. perfbench/run.py
// builds this binary and the server, then calls it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--server-bin") {
      opts.server_bin = v;
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else if (flag == "--rate") {
      opts.rate = std::atof(v);
    } else if (flag == "--server-rows") {
      opts.server_rows = std::atoll(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!perfbench::KnownWorkload(opts.workload) || opts.seconds <= 0 ||
      opts.work_dir.empty() || (!opts.trace && opts.server_bin.empty())) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  opts.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (opts.nproc < 1) opts.nproc = 1;
  return opts.trace ? perfbench::RunLayers(opts) : perfbench::RunEndToEnd(opts);
}
