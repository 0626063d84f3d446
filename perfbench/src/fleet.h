// A loopback ring of p2prange_node daemons, observed from outside:
// the daemons' --metrics_json files and /proc/<pid>/{stat,io,status}.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/address.h"

namespace perfbench {

/// Daemon flags shared by every member (besides listen/join/paths).
std::vector<std::string> DaemonFlags();

/// \brief One forked p2prange_node. Destroying a still-running daemon
/// SIGKILLs and reaps it.
class Daemon {
 public:
  Daemon(pid_t pid, p2prange::NetAddress addr, std::string wal_dir,
         std::string metrics_path)
      : pid_(pid),
        addr_(addr),
        wal_dir_(std::move(wal_dir)),
        metrics_path_(std::move(metrics_path)) {}
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  const p2prange::NetAddress& address() const { return addr_; }
  const std::string& wal_dir() const { return wal_dir_; }
  const std::string& metrics_path() const { return metrics_path_; }

  /// True (and reaped) when the process has already exited.
  bool Exited();
  /// SIGTERM (the daemon drains, hands its descriptors on and exits),
  /// then reaps it; OK only on exit code 0 within `timeout_s`
  /// (otherwise it is SIGKILLed).
  p2prange::Status Terminate(double timeout_s);

 private:
  pid_t pid_;
  p2prange::NetAddress addr_;
  std::string wal_dir_;
  std::string metrics_path_;
};

/// \brief Cumulative counters of one daemon process.
struct ProcSample {
  double cpu_s = 0.0;       ///< utime + stime
  uint64_t wchar = 0;       ///< bytes passed to write() and friends
  uint64_t vm_hwm_kb = 0;   ///< peak resident set
};
p2prange::Result<ProcSample> SampleProc(pid_t pid);

/// One counter of a daemon's metrics JSON: `key` of the flat object
/// `section` (as p2prange_node writes it).
p2prange::Result<uint64_t> JsonCounter(const std::string& json,
                                       const std::string& section,
                                       const std::string& key);

/// \brief Counters from a daemon's metrics file.
struct NodeCounters {
  uint64_t descriptors_stored = 0;
  uint64_t probes_served = 0;
  uint64_t probe_hits = 0;
  uint64_t checkpoints = 0;
  uint64_t partitions_fetched = 0;
  uint64_t requests_served = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t executor_shed = 0;
};
p2prange::Result<NodeCounters> ParseNodeCounters(const std::string& json);
p2prange::Result<NodeCounters> ReadNodeCounters(const std::string& path);

/// \brief The ring: boots `size` daemons under `dir` (bootstrap first,
/// then joiners), relaunching any that die while booting on a fresh
/// port, and waits until every member's gossip view holds all of them.
/// `durable` daemons get a --wal_dir and a --metrics_json file; the
/// others touch no file.
class Fleet {
 public:
  static p2prange::Result<std::unique_ptr<Fleet>> Boot(
      const std::string& binary, const std::string& dir, size_t size,
      bool durable);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<p2prange::NetAddress> members() const;
  std::vector<std::unique_ptr<Daemon>>& daemons() { return daemons_; }
  /// Daemons relaunched because they died during boot.
  int relaunches() const { return relaunches_; }

  /// Waits until every daemon has rewritten its metrics file after
  /// `after_ns` (CLOCK_REALTIME ns) and returns the parsed counters.
  p2prange::Result<std::vector<NodeCounters>> FreshCounters(
      uint64_t after_ns, double timeout_s) const;

  /// SIGTERMs the daemons one at a time and requires every exit to be
  /// clean.
  p2prange::Status TerminateAll();

 private:
  Fleet() = default;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  int relaunches_ = 0;
};

/// Wall clock (CLOCK_REALTIME) in ns, comparable to file mtimes.
uint64_t RealtimeNs();

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
