// remos_perfbench: runs one workload of the end-to-end benchmark and writes
// its record as JSON. perfbench/run.py builds this binary, runs it and turns
// the record into the benchmark's report and result line.
//
//   remos_perfbench --workload <lan_discovery|wan_serving|monitor_churn>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --record <path> [--spans <path>]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "remos_perfbench: %s\nusage: remos_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --record <path> [--spans <path>]\n",
               why);
  std::exit(2);
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string record_path, spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed" || arg == "--seconds") {
      try {
        if (arg == "--seed") {
          opt.seed = std::stoull(value);
        } else {
          opt.seconds = std::stod(value);
        }
      } catch (const std::exception&) {
        usage(("bad value for " + arg).c_str());
      }
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--record") {
      record_path = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (record_path.empty()) usage("--record is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  Record rec;
  rec.workload = opt.workload;
  rec.seed = opt.seed;
  rec.trace = opt.trace;
  Tracer::instance().enable(opt.trace);
  try {
    if (opt.workload == "lan_discovery") {
      run_lan_discovery(opt, rec);
    } else if (opt.workload == "wan_serving") {
      run_wan_serving(opt, rec);
    } else if (opt.workload == "monitor_churn") {
      run_monitor_churn(opt, rec);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remos_perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  rec.e2e("failed_ratio",
          rec.attempted ? static_cast<double>(rec.failed) / static_cast<double>(rec.attempted) : 0.0,
          "ratio");
  rec.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    rec.layer("bench.traced.latency_p50_us", rec.end_to_end["latency_p50"].value, "us");
    rec.layer("bench.traced.queries_per_s", rec.end_to_end["queries_per_s"].value, "1/s");
  }
  rec.meta["host"] = hostname();
  rec.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  rec.meta["compiler"] = PERFBENCH_COMPILER;
  rec.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  rec.meta["REMOS_AUDIT"] = "OFF";  // fixed by perfbench/CMakeLists.txt
  rec.meta["REMOS_OBS"] = "ON";
  rec.meta["seed"] = std::to_string(opt.seed);
  rec.meta["seconds"] = std::to_string(opt.seconds);

  if (!rec.write(record_path)) {
    std::fprintf(stderr, "remos_perfbench: cannot write %s\n", record_path.c_str());
    return 1;
  }
  if (opt.trace && !spans_path.empty() && !Tracer::instance().write(spans_path)) {
    std::fprintf(stderr, "remos_perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
