// perfbench_runner: runs one benchmark workload and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --work_dir DIR
//
// Workloads: live_read, live_cache_on_miss, engine_churn. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones. A
// failed correctness check exits 1 and prints no result line.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void AddPerLayerDefaults(Metrics* m) {
  static const char* const kPerLayer[][2] = {
      {"hash.identifiers_us", "us"},
      {"hash.share", "ratio"},
      {"engine.hops_per_query", "count"},
      {"engine.messages_per_query", "count"},
      {"engine.bytes_per_query", "B"},
      {"engine.publishes_per_query", "count"},
      {"engine.recall", "ratio"},
      {"overlay.route_us", "us"},
      {"client.lookup_us", "us"},
      {"client.lookup_p99_us", "us"},
      {"client.fetch_us", "us"},
      {"client.store_partition_us", "us"},
      {"client.publish_us", "us"},
      {"client.publish_p99_us", "us"},
      {"client.publishes_per_query", "count"},
      {"client.batched_probes_per_lookup", "count"},
      {"client.failovers_per_query", "count"},
      {"client.retransmits_per_query", "count"},
      {"rpc.ping_rtt_us", "us"},
      {"rpc.frame_mb_s", "MB/s"},
      {"rpc.fetch_mb_s", "MB/s"},
      {"rpc.frames_per_query", "count"},
      {"rpc.bytes_per_query", "B"},
      {"node.cpu_us_per_query", "us"},
      {"node.busy_share", "ratio"},
      {"node.probe_hit_ratio", "ratio"},
      {"node.executor_shed", "count"},
      {"store.write_bytes_per_descriptor", "B"},
      {"store.checkpoints_per_descriptor", "count"},
      {"store.disk_bytes_per_descriptor", "B"},
      {"self.bench_us", "us"},
      {"self.hash_us", "us"},
      {"self.client_us", "us"},
      {"self.rpc_us", "us"},
      {"self.node_us", "us"},
      {"self.overlay_us", "us"},
      {"self.engine_us", "us"},
      {"self.unaccounted_us", "us"},
      {"trace.overhead_us", "us"},
  };
  for (const auto& metric : kPerLayer) m->Add(metric[0], 0.0, metric[1]);
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "live_read|live_cache_on_miss|engine_churn --seed N "
               "--seconds S --trace 0|1 --work_dir DIR\n");
  return 2;
}

/// Refuses to measure a build whose numbers would mislead.
bool BuildIsMeasurable() {
  const std::string sanitize = PERFBENCH_SANITIZE;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  PrintCondition("build", "type=" + build_type + ", optimized=" +
                              (optimized ? "yes" : "no") + ", sanitizers=" +
                              (sanitize.empty() ? "none" : sanitize));
  if (!sanitize.empty() || !optimized ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a sanitizer or "
                 "unoptimised build\n");
    return false;
  }
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work_dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds < 1 ||
      !have_trace || args.work_dir.empty()) {
    return Usage();
  }

  if (!BuildIsMeasurable()) return 3;
  PrintCondition("nproc", std::to_string(std::thread::hardware_concurrency()));
  PrintCondition("workload", args.workload + ", seed=" +
                                 std::to_string(args.seed) + ", seconds=" +
                                 std::to_string(args.seconds) + ", trace=" +
                                 (args.trace ? "1" : "0"));

  Outcome outcome;
  if (args.workload == "live_read") {
    outcome = RunLiveRead(args);
  } else if (args.workload == "live_cache_on_miss") {
    outcome = RunLiveCacheOnMiss(args);
  } else if (args.workload == "engine_churn") {
    outcome = RunEngineChurn(args);
  } else {
    return Usage();
  }

  if (!AllChecksPassed()) {
    std::fprintf(stderr, "perfbench: %llu check(s) failed; no result\n",
                 static_cast<unsigned long long>(ChecksFailed()));
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.metrics.ToJson().c_str());
  return 0;
}
