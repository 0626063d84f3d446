// engine_churn: the in-process ScenarioEngine with Chord routing, the
// paper's uniform ranges over [0, 10^6], 10^5 peers and steady churn.
//
// The engine drains a whole scenario inside one Run() call, so no
// per-query boundary is visible from outside. The run is therefore cut
// into epochs: each epoch builds a fresh engine (set-up, timed as
// ScenarioEngine::Make) and runs kQueriesPerEpoch queries through it.
// An epoch's per-query time is its Run() wall time over its queries;
// p50_ms / p99_ms are order statistics of those per-epoch values.
#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "hash/lsh.h"
#include "sim/engine/compact_overlay.h"
#include "sim/engine/scenario_engine.h"
#include "workload/range_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using p2prange::Range;
using p2prange::sim::ScenarioConfig;
using p2prange::sim::ScenarioEngine;
using p2prange::sim::ScenarioReport;

constexpr size_t kPeers = 100000;
constexpr size_t kQueriesPerEpoch = 5000;
constexpr uint32_t kDomain = 1000000;
// Traced run: ranges hashed and routes taken by the layer probes.
constexpr size_t kLayerSamples = 20000;

ScenarioConfig EpochConfig(uint64_t seed) {
  ScenarioConfig config;
  config.kind = p2prange::overlay::Kind::kChord;
  config.shape = p2prange::sim::WorkloadShape::kUniform;
  config.churn = p2prange::sim::ChurnMode::kChurn;
  config.num_peers = kPeers;
  config.num_queries = kQueriesPerEpoch;
  config.domain = kDomain;
  config.seed = seed;
  return config;
}

bool SameCounts(const ScenarioReport& a, const ScenarioReport& b) {
  return a.queries == b.queries && a.exact_hits == b.exact_hits &&
         a.approx_hits == b.approx_hits && a.misses == b.misses &&
         a.recall_sum == b.recall_sum && a.hops == b.hops &&
         a.messages == b.messages && a.bytes == b.bytes &&
         a.publishes == b.publishes &&
         a.descriptors_stored == b.descriptors_stored &&
         a.stale_evictions == b.stale_evictions && a.crashes == b.crashes &&
         a.recoveries == b.recoveries;
}

/// Sockets this process holds open, by inode ("socket:[N]"). The
/// engine must open none beyond those the process inherited.
std::set<std::string> OpenSockets() {
  std::set<std::string> sockets;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return sockets;
  while (dirent* entry = ::readdir(dir)) {
    const std::string path = std::string("/proc/self/fd/") + entry->d_name;
    char target[256];
    const ssize_t n = ::readlink(path.c_str(), target, sizeof(target) - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::string(target).rfind("socket:", 0) == 0) sockets.insert(target);
  }
  ::closedir(dir);
  return sockets;
}

struct Epoch {
  ScenarioReport report;
  double make_s = 0.0;
  double run_s = 0.0;
  uint64_t memory_bytes = 0;
};

Epoch RunEpoch(uint64_t seed, Tracer* tracer, uint64_t index) {
  Epoch epoch;
  const int make_span = tracer->Begin("engine.make", index);
  const uint64_t t0 = WallNs();
  auto engine = ScenarioEngine::Make(EpochConfig(seed));
  const uint64_t t1 = WallNs();
  tracer->End(make_span);
  CheckThat(engine.ok(), "ScenarioEngine::Make: " + engine.status().ToString());
  if (!engine.ok()) return epoch;
  const int run_span = tracer->Begin("engine.run", index);
  const uint64_t t2 = WallNs();
  auto report = engine->Run();
  const uint64_t t3 = WallNs();
  tracer->End(run_span);
  CheckThat(report.ok(), "ScenarioEngine::Run: " + report.status().ToString());
  if (!report.ok()) return epoch;
  epoch.report = *report;
  epoch.make_s = static_cast<double>(t1 - t0) / 1e9;
  epoch.run_s = static_cast<double>(t3 - t2) / 1e9;
  epoch.memory_bytes = engine->MemoryBytes();
  const ScenarioReport& r = epoch.report;
  CheckThat(r.queries == kQueriesPerEpoch,
            "engine ran " + std::to_string(r.queries) + " of " +
                std::to_string(kQueriesPerEpoch) + " queries");
  CheckThat(r.exact_hits + r.approx_hits + r.misses == r.queries,
            "engine outcomes do not add up to its queries");
  CheckThat(r.crashes > 0, "engine_churn saw no churn");
  return epoch;
}

}  // namespace

Outcome RunEngineChurn(const RunArgs& args) {
  Outcome out;
  Tracer tracer(args.trace);
  const ScenarioConfig shown = EpochConfig(args.seed);
  PrintCondition("engine", "ScenarioEngine chord uniform churn, peers=" +
                               std::to_string(kPeers) + ", domain=[0," +
                               std::to_string(kDomain) + "], replication=" +
                               std::to_string(shown.replication) +
                               ", churn_interval_ms=" +
                               std::to_string(shown.churn_interval_ms) +
                               ", queries_per_epoch=" +
                               std::to_string(kQueriesPerEpoch));
  PrintCondition("load", "one thread, in process, no sockets");

  // A traced run records spans on even epochs only; the odd ones are
  // its untraced reference for the tracing overhead.
  Tracer untraced(false);
  const std::set<std::string> inherited = OpenSockets();
  std::vector<Epoch> epochs;
  const uint64_t window_start = WallNs();
  const uint64_t window_ns = static_cast<uint64_t>(args.seconds) * 1000000000ULL;
  // At least three epochs, so set-up time has a median of three.
  while (epochs.size() < 3 || WallNs() - window_start < window_ns) {
    const uint64_t index = epochs.size();
    epochs.push_back(RunEpoch(MixSeed(args.seed, index),
                              index % 2 == 0 ? &tracer : &untraced, index));
    if (!AllChecksPassed()) return out;
  }

  // Same seed, same counts: the engine is deterministic.
  const Epoch again = RunEpoch(MixSeed(args.seed, 0), &untraced, 0);
  CheckThat(SameCounts(epochs[0].report, again.report),
            "engine rerun with the same seed reported different counts");
  size_t opened = 0;
  for (const std::string& socket : OpenSockets()) {
    opened += inherited.count(socket) == 0 ? 1 : 0;
  }
  CheckThat(opened == 0, "engine_churn opened " + std::to_string(opened) + " sockets");
  PrintCondition("sockets_opened", std::to_string(opened));

  ScenarioReport total;
  double run_s = 0.0;
  std::vector<double> per_query_ms, make_s, memory_mb;
  std::vector<double> traced_ms, untraced_ms;
  for (const Epoch& e : epochs) {
    const ScenarioReport& r = e.report;
    total.queries += r.queries;
    total.exact_hits += r.exact_hits;
    total.approx_hits += r.approx_hits;
    total.misses += r.misses;
    total.recall_sum += r.recall_sum;
    total.hops += r.hops;
    total.messages += r.messages;
    total.bytes += r.bytes;
    total.publishes += r.publishes;
    run_s += e.run_s;
    per_query_ms.push_back(e.run_s * 1e3 / static_cast<double>(r.queries));
    if ((&e - epochs.data()) % 2 == 0) {
      traced_ms.push_back(per_query_ms.back());
    } else {
      untraced_ms.push_back(per_query_ms.back());
    }
    make_s.push_back(e.make_s);
    memory_mb.push_back(static_cast<double>(e.memory_bytes) / 1e6);
  }
  out.attempted = total.queries;
  out.failed = 0;
  const double queries = static_cast<double>(total.queries);
  PrintCondition("samples", std::to_string(epochs.size()) + " epochs, " +
                                std::to_string(total.queries) + " queries");

  if (!args.trace) {
    out.metrics.Add("qps", queries / run_s, "1/s");
    out.metrics.Add("p50_ms", Quantile(per_query_ms, 0.50), "ms");
    out.metrics.Add("p99_ms", Quantile(per_query_ms, 0.99), "ms");
    out.metrics.Add("recall", total.mean_recall(), "ratio");
    out.metrics.Add("success_rate", 1.0, "ratio");
    out.metrics.Add("setup_s", Quantile(make_s, 0.5), "s");
    out.metrics.Add("mem_mb", Quantile(memory_mb, 0.5), "MB");
    return out;
  }

  // Layer probes, outside the engine: the hash layer on ranges of the
  // workload's distribution, and the Chord model's routing on an
  // overlay of the workload's size and seed.
  AddPerLayerDefaults(&out.metrics);
  const ScenarioConfig config = EpochConfig(MixSeed(args.seed, 0));
  p2prange::LshParams lsh_params = config.lsh;
  lsh_params.seed = config.seed ^ 0x5bd1e995u;
  auto lsh = p2prange::LshScheme::Make(lsh_params);
  CheckThat(lsh.ok(), "LshScheme::Make: " + lsh.status().ToString());
  auto overlay = p2prange::sim::MakeCompactOverlay(
      config.kind, config.num_peers, config.seed, config.can_dims);
  CheckThat(overlay.ok(), "MakeCompactOverlay: " + overlay.status().ToString());
  if (!lsh.ok() || !overlay.ok()) return out;
  p2prange::UniformRangeGenerator ranges(0, kDomain, MixSeed(args.seed, 0xa5));
  p2prange::Rng rng(MixSeed(args.seed, 0xb7));
  std::vector<uint32_t> ids;
  uint64_t route_hops = 0;
  for (size_t i = 0; i < kLayerSamples; ++i) {
    const Range q = ranges.Next();
    const int hash_span = tracer.Begin("hash.identifiers", i);
    lsh->IdentifiersInto(q, &ids);
    tracer.End(hash_span);
    const uint32_t origin = (*overlay)->RandomAliveSlot(rng);
    const int route_span = tracer.Begin("overlay.route", i);
    int hops = 0;
    (*overlay)->Route(origin, ids[i % ids.size()], &hops);
    tracer.End(route_span);
    route_hops += static_cast<uint64_t>(hops);
  }
  CheckThat(route_hops > 0, "overlay probe routed with zero hops");

  const double identifiers_us =
      Quantile(tracer.DurationsUs("hash.identifiers"), 0.5);
  const double route_us = Quantile(tracer.DurationsUs("overlay.route"), 0.5);
  const double per_query_us = run_s * 1e6 / queries;
  const double publishes_per_query =
      static_cast<double>(total.publishes) / queries;
  // Each query hashes its range once, and each cache-on-miss publish
  // hashes it again; each hash is followed by l routes.
  const double hashes_per_query = 1.0 + publishes_per_query;
  const double l = static_cast<double>(config.lsh.l);
  const double self_hash = identifiers_us * hashes_per_query;
  const double self_overlay = route_us * l * hashes_per_query;

  Metrics& m = out.metrics;
  m.Add("hash.identifiers_us", identifiers_us, "us");
  m.Add("hash.share", self_hash / per_query_us, "ratio");
  m.Add("engine.hops_per_query", static_cast<double>(total.hops) / queries,
        "count");
  m.Add("engine.messages_per_query",
        static_cast<double>(total.messages) / queries, "count");
  m.Add("engine.bytes_per_query", static_cast<double>(total.bytes) / queries,
        "B");
  m.Add("engine.publishes_per_query", publishes_per_query, "count");
  m.Add("engine.recall", total.mean_recall(), "ratio");
  m.Add("overlay.route_us", route_us, "us");
  m.Add("self.hash_us", self_hash, "us");
  m.Add("self.overlay_us", self_overlay, "us");
  m.Add("self.engine_us", per_query_us - self_hash - self_overlay, "us");
  // The layers above add up to the mean per-query time by
  // construction; what is left over is the gap to the median.
  m.Add("self.unaccounted_us", Quantile(per_query_ms, 0.5) * 1e3 - per_query_us,
        "us");
  m.Add("trace.overhead_us",
        (Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5)) * 1e3, "us");

  std::printf(
      "# layers per query (engine_churn, modelled from layer probes): "
      "hash %.2f us, overlay %.2f us, engine (rest of Run) %.2f us, "
      "total %.2f us\n",
      self_hash, self_overlay, per_query_us - self_hash - self_overlay,
      per_query_us);
  const std::string trace_path = args.work_dir + "/trace-engine_churn.jsonl";
  CheckThat(tracer.WriteJsonl(trace_path), "cannot write " + trace_path);
  PrintCondition("trace_file", trace_path);
  return out;
}

}  // namespace perfbench
