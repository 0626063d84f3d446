// live_read and live_cache_on_miss: one closed-loop client thread
// against a 3-daemon loopback ring (--workers=1 --replication=2).
//
// Set-up (timed as setup_s) is fork -> converged view -> corpus
// seeded, once per round. The next query starts only after the
// previous one answered, as RingClient::Lookup blocks its caller.
//
// live_read runs Lookup only, for `seconds`. live_cache_on_miss runs
// the paper's §4 query a fixed number of times per round, so two
// commits end with the same store size: Lookup; on a hit FetchPartition
// of the winner; on any non-exact answer StorePartition of the exact
// answer and Publish of the query range.
//
// A traced run alternates traced and untraced queries: the traced ones
// carry spans, the untraced ones give the reference p50 for the
// tracing overhead and the unaccounted remainder.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fleet.h"
#include "rel/relation.h"
#include "rpc/frame.h"
#include "rpc/ring_client.h"
#include "rpc/tcp_transport.h"
#include "wire/serde.h"
#include "workload/range_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using p2prange::NetAddress;
using p2prange::PartitionKey;
using p2prange::Range;
using p2prange::Relation;
using p2prange::Status;
using p2prange::rpc::RingClient;

constexpr size_t kRingSize = 3;
// Each run is cut into rounds; a round sets up a fresh ring (timed as
// setup_s, reported as the median over rounds), runs its window, and
// shuts the ring down. live_read splits --seconds over kReadRounds;
// live_cache_on_miss runs one round of kQueriesPerRound queries per
// kSecondsPerCacheRound of --seconds, so every round ends with the same
// store size on any commit.
constexpr int kReadRounds = 5;
constexpr size_t kQueriesPerRound = 600;
constexpr int kSecondsPerCacheRound = 4;
// A narrow domain: published ranges overlap heavily and share LSH
// identifiers, so buckets are fat and a probe does real matching work.
constexpr uint32_t kDomainHi = 240;
constexpr size_t kReadCorpus = 240;
constexpr size_t kCacheCorpus = 120;
// Rows per domain value of the base relation: a partition of range
// [lo, hi] carries (hi - lo + 1) * kRowsPerValue rows, so fetch frames
// run from about 400 B to about 100 KB.
constexpr uint32_t kRowsPerValue = 32;
constexpr const char* kRelation = "T";
constexpr const char* kAttribute = "a";

enum class Kind { kRead, kCacheOnMiss };

const char* KindName(Kind kind) {
  return kind == Kind::kRead ? "live_read" : "live_cache_on_miss";
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) / 1e9;
}

p2prange::rpc::RingClientOptions ClientOptions() {
  p2prange::rpc::RingClientOptions options;
  options.lsh = p2prange::LshParams::Paper(
      p2prange::HashFamilyType::kApproxMinwise, 0x5eed5bd1e995ULL);
  options.descriptor_replication = 2;
  options.deadline_ms = 2000.0;
  options.transport.default_deadline_ms = 2000.0;
  options.fault.max_retries = 1;
  return options;
}

/// The exact answer to `range` over the base relation: kRowsPerValue
/// rows per domain value, with a payload column drawn from the seed.
Relation ExactAnswer(const Range& range, uint64_t seed) {
  p2prange::Schema schema(
      {p2prange::Field{kAttribute, p2prange::ValueType::kInt64,
                       p2prange::AttributeDomain{0, kDomainHi}},
       p2prange::Field{"payload", p2prange::ValueType::kInt64, std::nullopt}});
  Relation rel(kRelation, schema);
  rel.Reserve(static_cast<size_t>(range.size()) * kRowsPerValue);
  for (uint32_t v = range.lo(); v <= range.hi(); ++v) {
    for (uint32_t r = 0; r < kRowsPerValue; ++r) {
      const uint64_t payload = MixSeed(seed, (uint64_t{v} << 32) | r);
      rel.AppendUnchecked({p2prange::Value(static_cast<int64_t>(v)),
                           p2prange::Value(static_cast<int64_t>(payload >> 1))});
    }
  }
  return rel;
}

/// FNV-1a over every integer value, in row order.
uint64_t Checksum(const Relation& rel) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : rel.rows()) {
    for (const auto& value : row) {
      const uint64_t x =
          value.is_int() ? static_cast<uint64_t>(value.AsInt()) : 0x5a5aULL;
      for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

using RangeKey = std::pair<uint32_t, uint32_t>;
RangeKey KeyOf(const Range& r) { return {r.lo(), r.hi()}; }

/// What the benchmark published and stored, to check answers against.
struct Catalog {
  std::set<RangeKey> published;
  std::map<RangeKey, std::pair<size_t, uint64_t>> stored;  ///< rows, checksum
};

/// One ring with its corpus seeded: the set-up that setup_s times.
struct Ring {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<RingClient> client;
  Catalog catalog;
};

p2prange::Result<Ring> SetUp(Kind kind, const std::string& binary,
                             const std::string& dir, uint64_t seed,
                             bool durable) {
  Ring ring;
  ASSIGN_OR_RETURN(ring.fleet, Fleet::Boot(binary, dir, kRingSize, durable));
  const std::vector<NetAddress> members = ring.fleet->members();
  ASSIGN_OR_RETURN(ring.client, RingClient::Make(members, ClientOptions()));
  const bool cache = kind == Kind::kCacheOnMiss;
  p2prange::UniformRangeGenerator corpus(0, kDomainHi, MixSeed(seed, 1));
  const size_t n = cache ? kCacheCorpus : kReadCorpus;
  for (size_t i = 0; i < n; ++i) {
    const Range r = corpus.Next();
    const PartitionKey key{kRelation, kAttribute, r};
    const NetAddress& holder = members[i % members.size()];
    if (cache) {
      const Relation rel = ExactAnswer(r, seed);
      RETURN_NOT_OK(ring.client->StorePartition(key, rel, holder));
      ring.catalog.stored[KeyOf(r)] = {rel.num_rows(), Checksum(rel)};
    }
    RETURN_NOT_OK(ring.client->Publish(key, holder));
    ring.catalog.published.insert(KeyOf(r));
  }
  return ring;
}

/// Checks one lookup answer; returns the recall of its winner.
double CheckAnswer(const Range& q, const p2prange::rpc::LiveLookupOutcome& out,
                   const Catalog& catalog) {
  double previous = 2.0;
  for (const auto& c : out.ranked) {
    const PartitionKey& key = c.descriptor.key;
    CheckThat(key.relation == kRelation && key.attribute == kAttribute,
              "answer names a column that was never published");
    CheckThat(catalog.published.count(KeyOf(key.range)) == 1,
              "answer range " + key.ToString() + " was never published");
    const double jaccard = q.Jaccard(key.range);
    CheckThat(std::fabs(c.similarity - jaccard) <= 1e-12,
              "reported similarity " + std::to_string(c.similarity) +
                  " != recomputed Jaccard " + std::to_string(jaccard));
    CheckThat(c.exact == (key.range == q), "exact flag disagrees with range");
    CheckThat(c.similarity <= previous, "answers are not ranked best first");
    previous = c.similarity;
  }
  return out.ranked.empty() ? 0.0 : q.RecallFrom(out.ranked[0].descriptor.key.range);
}

/// Per-query record of the timed window.
struct QueryRecord {
  double ms = 0.0;
  double recall = 0.0;
  bool traced = false;
};

struct Window {
  std::vector<QueryRecord> queries;
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;
  uint64_t lookups = 0;
  uint64_t publishes = 0;
  uint64_t batched_probes = 0;
  uint64_t failovers = 0;
  std::vector<double> ping_us;
  std::vector<double> fetch_bytes;
  /// Traced queries: round trips the client waited for one after the
  /// other (a lookup's pipelined first wave counts once).
  double sequential_round_trips = 0.0;
  double wall_s = 0.0;
  /// Per round: index of its first query, and its window's wall time.
  std::vector<size_t> round_begin;
  std::vector<double> round_wall_s;
};

/// Runs one round's timed window against `ring`, appending to `w`:
/// `seconds` of queries for live_read, kQueriesPerRound for
/// live_cache_on_miss. Spans (traced run) go to `tracer`.
void RunWindow(Kind kind, const RunArgs& args, uint64_t round, double seconds,
               Ring& ring, Tracer* tracer, Window* out) {
  Window& w = *out;
  RingClient& client = *ring.client;
  Catalog& catalog = ring.catalog;
  const std::vector<NetAddress> members = ring.fleet->members();
  p2prange::UniformRangeGenerator queries(0, kDomainHi,
                                          MixSeed(args.seed, 2 + round));
  // The ping probe rides its own transport, between queries.
  p2prange::rpc::TcpTransport ping_transport;
  std::vector<uint32_t> ids;
  auto sent = [&client] { return client.transport().rpc_stats().requests_sent; };

  const bool cache = kind == Kind::kCacheOnMiss;
  w.round_begin.push_back(w.queries.size());
  const uint64_t start = WallNs();
  for (uint64_t i = 0;; ++i) {
    if (cache ? i >= kQueriesPerRound : SecondsSince(start) >= seconds) break;
    const uint64_t qi = w.queries.size();  // query id, unique in the run
    const Range q = queries.Next();
    const PartitionKey key{kRelation, kAttribute, q};
    const bool traced = tracer->enabled() && qi % 2 == 0;
    Tracer untraced(false);
    Tracer& t = traced ? *tracer : untraced;
    // The exact answer is built before the clock starts: it stands for
    // data the querying peer already has.
    const Relation answer = cache ? ExactAnswer(q, args.seed) : Relation();

    QueryRecord rec;
    rec.traced = traced;
    auto count_op = [&w](bool ok) {
      ++w.ops_attempted;
      w.ops_failed += ok ? 0 : 1;
    };
    const uint64_t q0 = WallNs();
    const int query_span = t.Begin("query", qi);
    if (traced) {
      const int span = t.Begin("hash.identifiers", qi, query_span);
      client.lsh().IdentifiersInto(q, &ids);
      t.End(span);
    }
    int span = t.Begin("client.lookup", qi, query_span);
    auto outcome = client.Lookup(key);
    t.End(span);
    // A lookup that lost every replica of some bucket degraded: it
    // counts as a failed operation, not as a wrong answer.
    count_op(outcome.ok() && outcome->probes_failed == 0);
    ++w.lookups;
    std::optional<p2prange::Result<Relation>> fetched;
    PartitionKey winner;
    bool exact = false;
    if (traced && outcome.ok()) {
      w.sequential_round_trips += 1.0 + outcome->failovers + outcome->redirects +
                                  outcome->view_refreshes;
    }
    const uint64_t sent_after_lookup = sent();
    if (outcome.ok() && cache) {
      if (!outcome->ranked.empty()) {
        const auto& best = outcome->ranked[0];
        winner = best.descriptor.key;
        exact = best.exact;
        span = t.Begin("client.fetch", qi, query_span);
        fetched = client.FetchPartition(winner, best.descriptor.holder);
        t.End(span);
        count_op(fetched->ok());
      }
      if (!exact) {
        // Cache on miss: the querying peer materializes the exact
        // answer and publishes it under the query range.
        const NetAddress& holder = members[qi % members.size()];
        span = t.Begin("client.store_partition", qi, query_span);
        const Status stored = client.StorePartition(key, answer, holder);
        t.End(span);
        count_op(stored.ok());
        if (stored.ok()) {
          span = t.Begin("client.publish", qi, query_span);
          const Status published = client.Publish(key, holder);
          t.End(span);
          count_op(published.ok());
          ++w.publishes;
          if (published.ok()) {
            catalog.published.insert(KeyOf(q));
            catalog.stored[KeyOf(q)] = {answer.num_rows(), Checksum(answer)};
          }
        }
      }
    }
    t.End(query_span);
    rec.ms = static_cast<double>(WallNs() - q0) / 1e6;
    if (traced) {
      w.sequential_round_trips += static_cast<double>(sent() - sent_after_lookup);
    }

    // Checks run after the clock stops.
    if (outcome.ok()) {
      rec.recall = CheckAnswer(q, *outcome, catalog);
      w.batched_probes += static_cast<uint64_t>(outcome->batched_probes);
      w.failovers += static_cast<uint64_t>(outcome->failovers);
    }
    if (fetched.has_value() && fetched->ok()) {
      const auto it = catalog.stored.find(KeyOf(winner.range));
      CheckThat(it != catalog.stored.end(),
                "fetched " + winner.ToString() + ", which was never stored");
      if (it != catalog.stored.end()) {
        CheckThat((*fetched)->num_rows() == it->second.first &&
                      Checksum(**fetched) == it->second.second,
                  "fetched " + winner.ToString() +
                      " differs from what was stored");
      }
      if (traced) {
        w.fetch_bytes.push_back(
            static_cast<double>(p2prange::wire::RelationWireSize(**fetched)));
      }
    }
    w.queries.push_back(rec);

    if (traced) {
      const NetAddress& target = members[qi % members.size()];
      const int ping_span = t.Begin("rpc.ping", qi);
      const uint64_t p0 = WallNs();
      auto pong = ping_transport.Call(NetAddress{}, target,
                                      p2prange::rpc::MsgType::kPing, "");
      t.End(ping_span);
      if (pong.ok()) w.ping_us.push_back(static_cast<double>(WallNs() - p0) / 1e3);
    }
  }
  w.round_wall_s.push_back(SecondsSince(start));
  w.wall_s += w.round_wall_s.back();
}

/// /proc counters summed over the ring's daemons.
p2prange::Result<ProcSample> SampleFleet(Fleet& fleet) {
  ProcSample sum;
  for (const auto& d : fleet.daemons()) {
    ASSIGN_OR_RETURN(ProcSample s, SampleProc(d->pid()));
    sum.cpu_s += s.cpu_s;
    sum.wchar += s.wchar;
    sum.vm_hwm_kb += s.vm_hwm_kb;
  }
  return sum;
}

double PerUnit(double amount, double units) {
  return units > 0.0 ? amount / units : 0.0;
}

int Rounds(Kind kind, const RunArgs& args) {
  return kind == Kind::kRead ? kReadRounds
                             : std::max(1, args.seconds / kSecondsPerCacheRound);
}

void PrintLiveConditions(Kind kind, const RunArgs& args) {
  std::string flags;
  for (const std::string& f : DaemonFlags()) flags += (flags.empty() ? "" : " ") + f;
  PrintCondition("ring", std::to_string(kRingSize) +
                             " p2prange_node daemons on 127.0.0.1 (loopback "
                             "only), flags: " + flags);
  PrintCondition("load", "1 client thread, closed loop, one RingClient "
                         "(one socket per member)");
  // Daemon files are written with ofstream + rename on the shared disk:
  // the WAL and both snapshots whole per stored descriptor, the metrics
  // file every 50 poll iterations. On a shared virtual disk those writes
  // stall at random and set the tail, so the timed (untraced) runs use
  // daemons without them, and only the traced run, which reports the
  // store and daemon-counter layers, turns them on.
  PrintCondition("daemon_files",
                 args.trace ? "--wal_dir and --metrics_json per daemon "
                              "(traced run)"
                            : "none: no --wal_dir, no --metrics_json "
                              "(untraced run; the store keeps its WAL and "
                              "snapshots in memory)");
  PrintCondition("flush_policy",
                 "no fsync; with --wal_dir the WAL and both snapshots are "
                 "rewritten whole via ofstream + rename per stored descriptor");
  const bool read = kind == Kind::kRead;
  PrintCondition("corpus",
                 std::to_string(read ? kReadCorpus : kCacheCorpus) +
                     " uniform ranges over [0," + std::to_string(kDomainHi) + "]" +
                     (read ? std::string()
                           : ", " + std::to_string(kRowsPerValue) +
                                 " rows per domain value"));
  PrintCondition("rounds",
                 std::to_string(Rounds(kind, args)) +
                     " (fresh ring each), window " +
                     (read ? std::to_string(args.seconds / static_cast<double>(kReadRounds)) +
                                 " s each"
                           : std::to_string(kQueriesPerRound) + " queries each"));
}

/// What the daemons did over the rounds' windows, from outside.
struct NodeWindow {
  double cpu_s = 0.0;       ///< Σ daemon CPU during the windows
  double idle_cpu_s = 0.0;  ///< the share of it their idle rate explains
  uint64_t wchar = 0;
  NodeCounters delta;       ///< metrics-file counters (traced run only)
  NodeCounters finals;      ///< final metrics files, whole lifetimes
  uint64_t disk_bytes = 0;  ///< WAL directories at shutdown
  uint64_t retransmits = 0; ///< client transport
  std::vector<double> vm_hwm_mb;  ///< Σ daemon peak RSS, per round
};

void AddCounters(const NodeCounters& c, int sign, NodeCounters* into) {
  auto add = [sign](uint64_t v, uint64_t* to) {
    *to = sign > 0 ? *to + v : *to - v;
  };
  add(c.descriptors_stored, &into->descriptors_stored);
  add(c.probes_served, &into->probes_served);
  add(c.probe_hits, &into->probe_hits);
  add(c.checkpoints, &into->checkpoints);
  add(c.partitions_fetched, &into->partitions_fetched);
  add(c.requests_served, &into->requests_served);
  add(c.bytes_in, &into->bytes_in);
  add(c.bytes_out, &into->bytes_out);
  add(c.executor_shed, &into->executor_shed);
}

/// One round: set up a ring, run the window, shut the ring down.
/// Returns false once a check has failed.
bool RunRound(Kind kind, const RunArgs& args, int round, const std::string& tmp,
              Tracer* tracer, Window* w, NodeWindow* node,
              std::vector<double>* setup_s) {
  const std::string dir = tmp + "/round" + std::to_string(round);
  const uint64_t t0 = WallNs();
  // Only a traced round runs durable daemons (see PrintLiveConditions).
  auto made = SetUp(kind, PERFBENCH_NODE_BINARY, dir, args.seed, args.trace);
  setup_s->push_back(SecondsSince(t0));
  CheckThat(made.ok(), "set-up: " + made.status().ToString());
  if (!made.ok()) return false;
  Ring& ring = *made;
  Fleet& fleet = *ring.fleet;
  if (fleet.relaunches() > 0) {
    PrintCondition("boot_relaunches", std::to_string(fleet.relaunches()));
  }

  // A traced round takes window baselines: the daemons' own counters
  // (a metrics file written after set-up ended) and their idle CPU
  // rate (poll loop, membership) over the wait for that file.
  std::vector<NodeCounters> before;
  double idle_rate = 0.0;
  if (args.trace) {
    auto idle0 = SampleFleet(fleet);
    const uint64_t idle_start = WallNs();
    auto fresh = fleet.FreshCounters(RealtimeNs(), /*timeout_s=*/5.0);
    while (SecondsSince(idle_start) < 0.5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    auto idle1 = SampleFleet(fleet);
    CheckThat(fresh.ok() && idle0.ok() && idle1.ok(), "window baseline unreadable");
    if (!AllChecksPassed()) return false;
    before = *fresh;
    idle_rate = (idle1->cpu_s - idle0->cpu_s) / SecondsSince(idle_start);
  }
  auto proc_before = SampleFleet(fleet);
  const p2prange::rpc::RpcStats rpc_before = ring.client->transport().rpc_stats();
  CheckThat(proc_before.ok(), "daemon /proc unreadable");
  if (!AllChecksPassed()) return false;

  const double window_s0 = w->wall_s;
  const double seconds = args.seconds / static_cast<double>(kReadRounds);
  RunWindow(kind, args, static_cast<uint64_t>(round), seconds, ring, tracer, w);

  auto proc_after = SampleFleet(fleet);
  node->retransmits +=
      ring.client->transport().rpc_stats().retransmits - rpc_before.retransmits;
  if (args.trace) {
    auto after = fleet.FreshCounters(RealtimeNs(), /*timeout_s=*/5.0);
    CheckThat(after.ok(), "window counters unreadable");
    if (!after.ok()) return false;
    for (size_t i = 0; i < after->size(); ++i) {
      AddCounters((*after)[i], +1, &node->delta);
      AddCounters(before[i], -1, &node->delta);
    }
  }
  CheckThat(proc_after.ok(), "daemon /proc unreadable");
  if (!proc_after.ok()) return false;
  node->cpu_s += proc_after->cpu_s - proc_before->cpu_s;
  node->idle_cpu_s += idle_rate * (w->wall_s - window_s0);
  node->wchar += proc_after->wchar - proc_before->wchar;
  node->vm_hwm_mb.push_back(static_cast<double>(proc_after->vm_hwm_kb) * 1024.0 / 1e6);

  if (!args.trace) {
    // No metrics files: the node counters come over kMetrics (whose rpc
    // block reads 0, so only the node block is used).
    uint64_t probes = 0, fetches = 0;
    for (const auto& d : fleet.daemons()) {
      auto json = ring.client->NodeMetrics(d->address());
      auto served = json.ok() ? JsonCounter(*json, "node", "probes_served")
                              : p2prange::Result<uint64_t>(json.status());
      auto fetched = json.ok() ? JsonCounter(*json, "node", "partitions_fetched")
                               : p2prange::Result<uint64_t>(json.status());
      CheckThat(served.ok() && fetched.ok(), "kMetrics of " +
                                                 d->address().ToString() +
                                                 " unreadable");
      probes += served.ok() ? *served : 0;
      fetches += fetched.ok() ? *fetched : 0;
    }
    CheckThat(probes > 0, "daemons served no probe although queries ran");
    CheckThat(kind == Kind::kRead || fetches > 0, "no partition was fetched");
  }
  const Status down = fleet.TerminateAll();
  CheckThat(down.ok(), "ring shutdown: " + down.ToString());
  if (!args.trace) return AllChecksPassed();

  // The final metrics files, written on SIGTERM; their rpc block holds
  // the daemon's real transport counters.
  NodeCounters finals;
  for (const auto& d : fleet.daemons()) {
    auto c = ReadNodeCounters(d->metrics_path());
    CheckThat(c.ok(), "final metrics " + d->metrics_path() + ": " +
                          c.status().ToString());
    if (c.ok()) AddCounters(*c, +1, &finals);
    node->disk_bytes += DirectoryBytes(d->wal_dir());
  }
  CheckThat(finals.requests_served > 0 && finals.probes_served > 0,
            "daemon counters read zero although queries ran");
  if (kind == Kind::kCacheOnMiss) {
    CheckThat(finals.partitions_fetched > 0, "no partition was fetched");
  }
  AddCounters(finals, +1, &node->finals);
  return AllChecksPassed();
}

Outcome RunLive(Kind kind, const RunArgs& args) {
  Outcome out;
  PrintLiveConditions(kind, args);
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  std::string tmp = args.work_dir + "/" + KindName(kind) + "-XXXXXX";
  if (::mkdtemp(tmp.data()) == nullptr) {
    CheckThat(false, "mkdtemp " + tmp + " failed");
    return out;
  }

  Tracer tracer(args.trace);
  Window w;
  NodeWindow node;
  std::vector<double> setup_s;
  const int rounds = Rounds(kind, args);
  for (int r = 0; r < rounds; ++r) {
    if (!RunRound(kind, args, r, tmp, &tracer, &w, &node, &setup_s)) break;
  }
  fs::remove_all(tmp, ec);
  if (!AllChecksPassed()) return out;

  const double queries = static_cast<double>(w.queries.size());
  CheckThat(kind == Kind::kRead ? w.publishes == 0 : w.publishes > 0,
            "unexpected publish count " + std::to_string(w.publishes));
  std::vector<double> all_ms, untraced_ms, traced_ms;
  double recall_sum = 0.0;
  for (const QueryRecord& r : w.queries) {
    all_ms.push_back(r.ms);
    (r.traced ? traced_ms : untraced_ms).push_back(r.ms);
    recall_sum += r.recall;
  }
  out.attempted = w.ops_attempted;
  out.failed = w.ops_failed;
  PrintCondition("samples", std::to_string(w.queries.size()) + " queries (" +
                                std::to_string(traced_ms.size()) + " traced), " +
                                std::to_string(w.ops_attempted) + " operations, " +
                                std::to_string(w.publishes) + " publishes, " +
                                std::to_string(setup_s.size()) + " set-ups");

  if (!args.trace) {
    CheckThat(w.queries.size() >= 1000,
              "p99 needs at least 1000 queries, ran " +
                  std::to_string(w.queries.size()));
    // Medians over rounds resist a burst of interference in one round.
    // A round's p99 needs 1000 queries; with fewer, p99 is taken over
    // all queries of the run.
    std::vector<double> round_qps, round_p50, round_p99;
    bool round_p99_ok = true;
    for (size_t r = 0; r < w.round_begin.size(); ++r) {
      const size_t begin = w.round_begin[r];
      const size_t end =
          r + 1 < w.round_begin.size() ? w.round_begin[r + 1] : w.queries.size();
      const std::vector<double> ms(all_ms.begin() + static_cast<long>(begin),
                                   all_ms.begin() + static_cast<long>(end));
      round_qps.push_back(static_cast<double>(ms.size()) / w.round_wall_s[r]);
      round_p50.push_back(Quantile(ms, 0.50));
      round_p99.push_back(Quantile(ms, 0.99));
      round_p99_ok = round_p99_ok && ms.size() >= 1000;
    }
    Metrics& m = out.metrics;
    m.Add("qps", Quantile(round_qps, 0.5), "1/s");
    m.Add("p50_ms", Quantile(round_p50, 0.5), "ms");
    m.Add("p99_ms",
          round_p99_ok ? Quantile(round_p99, 0.5) : Quantile(all_ms, 0.99), "ms");
    m.Add("recall", recall_sum / queries, "ratio");
    m.Add("success_rate",
          1.0 - PerUnit(static_cast<double>(w.ops_failed),
                        static_cast<double>(w.ops_attempted)),
          "ratio");
    m.Add("setup_s", Quantile(setup_s, 0.5), "s");
    m.Add("mem_mb", Quantile(node.vm_hwm_mb, 0.5), "MB");
    return out;
  }

  // --- Per-layer metrics (traced run) -----------------------------------
  AddPerLayerDefaults(&out.metrics);
  Metrics& m = out.metrics;
  const NodeCounters& d = node.delta;
  const double traced_n = static_cast<double>(traced_ms.size());
  const double identifiers_us =
      Quantile(tracer.DurationsUs("hash.identifiers"), 0.5);
  const double publishes_per_query = PerUnit(static_cast<double>(w.publishes), queries);
  // The client hashes the range once per Lookup and once per Publish.
  const double hashes_per_query = 1.0 + publishes_per_query;
  const double p50_us = Quantile(untraced_ms, 0.5) * 1e3;
  const double per_query_us = PerUnit(w.wall_s * 1e6, queries);
  const double node_cpu_us = PerUnit(node.cpu_s * 1e6, queries);
  const double frames = static_cast<double>(d.requests_served);
  const double wire_bytes = static_cast<double>(d.bytes_in + d.bytes_out);
  const double stored = static_cast<double>(d.descriptors_stored);
  const double write_bytes_per_descriptor =
      stored > 0.0 ? static_cast<double>(node.wchar) / stored : 0.0;
  const double round_trips = PerUnit(w.sequential_round_trips, traced_n);
  const double ping_us = Quantile(w.ping_us, 0.5);
  double fetch_bytes = 0.0;
  for (const double bytes : w.fetch_bytes) fetch_bytes += bytes;
  const size_t frame_payload =
      !w.fetch_bytes.empty()
          ? static_cast<size_t>(Quantile(w.fetch_bytes, 0.5))
          : static_cast<size_t>(std::max(1.0, PerUnit(wire_bytes, frames)));

  m.Add("hash.identifiers_us", identifiers_us, "us");
  m.Add("hash.share", identifiers_us * hashes_per_query / p50_us, "ratio");
  const std::vector<double> lookup_us = tracer.DurationsUs("client.lookup");
  m.Add("client.lookup_us", Quantile(lookup_us, 0.5), "us");
  m.Add("client.lookup_p99_us", Quantile(lookup_us, 0.99), "us");
  m.Add("client.fetch_us", Quantile(tracer.DurationsUs("client.fetch"), 0.5), "us");
  m.Add("client.store_partition_us",
        Quantile(tracer.DurationsUs("client.store_partition"), 0.5), "us");
  const std::vector<double> publish_us = tracer.DurationsUs("client.publish");
  m.Add("client.publish_us", Quantile(publish_us, 0.5), "us");
  m.Add("client.publish_p99_us", Quantile(publish_us, 0.99), "us");
  m.Add("client.publishes_per_query", publishes_per_query, "count");
  m.Add("client.batched_probes_per_lookup",
        PerUnit(static_cast<double>(w.batched_probes), static_cast<double>(w.lookups)),
        "count");
  m.Add("client.failovers_per_query", PerUnit(static_cast<double>(w.failovers), queries),
        "count");
  m.Add("client.retransmits_per_query",
        PerUnit(static_cast<double>(node.retransmits), queries), "count");
  m.Add("rpc.ping_rtt_us", ping_us, "us");
  m.Add("rpc.frame_mb_s", MeasureFrameMbPerS(frame_payload, args.seed), "MB/s");
  m.Add("rpc.fetch_mb_s", PerUnit(fetch_bytes, tracer.TotalWallUs("client.fetch")),
        "MB/s");
  m.Add("rpc.frames_per_query", PerUnit(frames, queries), "count");
  m.Add("rpc.bytes_per_query", PerUnit(wire_bytes, queries), "B");
  m.Add("node.cpu_us_per_query", node_cpu_us, "us");
  m.Add("node.busy_share",
        PerUnit(node.cpu_s, w.wall_s * static_cast<double>(kRingSize)), "ratio");
  m.Add("node.probe_hit_ratio",
        PerUnit(static_cast<double>(d.probe_hits), static_cast<double>(d.probes_served)),
        "ratio");
  m.Add("node.executor_shed", static_cast<double>(node.finals.executor_shed), "count");
  m.Add("store.write_bytes_per_descriptor", write_bytes_per_descriptor, "B");
  m.Add("store.checkpoints_per_descriptor",
        PerUnit(static_cast<double>(d.checkpoints), stored), "count");
  m.Add("store.disk_bytes_per_descriptor",
        PerUnit(static_cast<double>(node.disk_bytes),
                static_cast<double>(node.finals.descriptors_stored)),
        "B");

  // Self time per query, layer by layer, over the traced queries. The
  // client spans are opaque from outside, so below them the split is
  // modelled from independent measurements: hash = probe time x hashes
  // per query; rpc = sequential round trips x ping RTT; node = daemon
  // CPU per query above its idle rate (store included, summed over
  // daemons that may work in parallel). The client layer is the client
  // thread's CPU inside its spans, minus the hashing it does. Whatever
  // p50_ms (untraced queries) leaves over is the unaccounted remainder;
  // below zero, the modelled layers overlap.
  double client_cpu_us = 0.0;
  for (const char* name : {"client.lookup", "client.fetch",
                           "client.store_partition", "client.publish"}) {
    client_cpu_us += tracer.TotalCpuUs(name);
  }
  const double self_bench = PerUnit(tracer.TotalSelfUs("query"), traced_n);
  const double self_hash = identifiers_us * hashes_per_query;
  const double self_client = PerUnit(client_cpu_us, traced_n) - self_hash;
  const double self_rpc = round_trips * ping_us;
  const double self_node =
      std::max(0.0, PerUnit((node.cpu_s - node.idle_cpu_s) * 1e6, queries));
  const double accounted = self_bench + self_hash + self_client + self_rpc + self_node;
  const double overhead_us =
      (Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5)) * 1e3;
  m.Add("self.bench_us", self_bench, "us");
  m.Add("self.hash_us", self_hash, "us");
  m.Add("self.client_us", self_client, "us");
  m.Add("self.rpc_us", self_rpc, "us");
  m.Add("self.node_us", self_node, "us");
  m.Add("self.unaccounted_us", p50_us - accounted, "us");
  m.Add("trace.overhead_us", overhead_us, "us");

  std::printf(
      "# layers per query (%s, traced queries; below the client spans "
      "modelled): bench %.1f us, hash %.1f us, client %.1f us, rpc %.1f us "
      "(%.2f sequential round trips x %.1f us), node %.1f us (store inside: "
      "%.0f B written per descriptor); sum %.1f us; p50 %.1f us -> "
      "unaccounted %.1f us; mean query %.1f us; tracing overhead %.1f us\n",
      KindName(kind), self_bench, self_hash, self_client, self_rpc,
      round_trips, ping_us, self_node, write_bytes_per_descriptor, accounted,
      p50_us, p50_us - accounted, per_query_us, overhead_us);
  const std::string trace_path =
      args.work_dir + "/trace-" + KindName(kind) + ".jsonl";
  CheckThat(tracer.WriteJsonl(trace_path), "cannot write " + trace_path);
  PrintCondition("trace_file", trace_path);
  return out;
}

}  // namespace

Outcome RunLiveRead(const RunArgs& args) { return RunLive(Kind::kRead, args); }

Outcome RunLiveCacheOnMiss(const RunArgs& args) {
  return RunLive(Kind::kCacheOnMiss, args);
}

double MeasureFrameMbPerS(size_t payload_bytes, uint64_t seed) {
  payload_bytes = std::max<size_t>(1, std::min(payload_bytes,
                                               p2prange::rpc::kMaxFramePayload));
  std::string payload(payload_bytes, '\0');
  p2prange::Rng rng(seed);
  for (char& c : payload) c = static_cast<char>(rng.Next() & 0xff);
  // About 32 MB of payload per measurement, at least 16 frames.
  const size_t frames = std::max<size_t>(16, (32u << 20) / payload_bytes);
  std::string framed;
  p2prange::rpc::FrameParser parser;
  size_t parsed = 0;
  const uint64_t t0 = WallNs();
  for (size_t i = 0; i < frames; ++i) {
    framed.clear();
    p2prange::rpc::AppendFrame(payload, &framed);
    parser.Feed(framed);
    auto next = parser.Next();
    if (next.ok() && next->has_value()) parsed += (*next)->size();
  }
  const double seconds = static_cast<double>(WallNs() - t0) / 1e9;
  CheckThat(parsed == frames * payload_bytes, "frame round trip lost bytes");
  return static_cast<double>(parsed) / 1e6 / seconds;
}

}  // namespace perfbench
