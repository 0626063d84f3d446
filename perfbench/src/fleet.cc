#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "rpc/membership.h"
#include "rpc/tcp.h"
#include "rpc/tcp_transport.h"

namespace perfbench {

namespace fs = std::filesystem;
using p2prange::NetAddress;
using p2prange::Result;
using p2prange::Status;

namespace {

constexpr int kBootAttempts = 5;
constexpr double kUpTimeoutS = 10.0;
constexpr double kConvergeTimeoutS = 20.0;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Binds 127.0.0.1:0 and closes it, leaving a port the kernel just
/// handed out. Another process may take it before the daemon binds;
/// Boot() relaunches a daemon that dies that way.
Result<NetAddress> ReservePort() {
  NetAddress loopback;
  loopback.host = 0x7F000001;
  ASSIGN_OR_RETURN(p2prange::rpc::ListenSocket sock,
                   p2prange::rpc::Listen(loopback));
  const NetAddress bound = sock.bound;
  ::close(sock.fd);
  return bound;
}

Result<std::unique_ptr<Daemon>> Launch(const std::string& binary,
                                       const std::string& dir,
                                       const std::string& name,
                                       const std::string& join, bool durable) {
  ASSIGN_OR_RETURN(NetAddress addr, ReservePort());
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  const std::string log = dir + "/" + name + ".log";
  std::vector<std::string> argv_store = {binary, "--listen=" + addr.ToString()};
  std::string wal_dir, metrics;
  if (durable) {
    wal_dir = dir + "/" + name;
    metrics = dir + "/" + name + ".json";
    // The daemon does not create its --wal_dir; publishes fail without it.
    fs::create_directories(wal_dir, ec);
    if (ec) return Status::IOError("mkdir " + wal_dir + ": " + ec.message());
    argv_store.push_back("--wal_dir=" + wal_dir);
    argv_store.push_back("--metrics_json=" + metrics);
  }
  for (const std::string& flag : DaemonFlags()) argv_store.push_back(flag);
  if (!join.empty()) argv_store.push_back("--join=" + join);
  std::vector<char*> argv;
  for (std::string& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    // A daemon must not outlive the runner, however the runner ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return std::make_unique<Daemon>(pid, addr, wal_dir, metrics);
}

/// Pings until the daemon answers; Unavailable if it exits first.
Status AwaitUp(Daemon& daemon, p2prange::rpc::TcpTransport& transport) {
  p2prange::rpc::Transport::CallOptions options;
  options.deadline_ms = 500.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kUpTimeoutS);
  while (std::chrono::steady_clock::now() < deadline) {
    if (daemon.Exited()) {
      return Status::Unavailable("daemon " + daemon.address().ToString() +
                                 " exited during boot");
    }
    if (transport
            .Call(NetAddress{}, daemon.address(), p2prange::rpc::MsgType::kPing,
                  "", options)
            .ok()) {
      return Status::OK();
    }
    SleepMs(20);
  }
  return Status::IOError("daemon " + daemon.address().ToString() +
                         " never answered a ping");
}

/// Alive members in `member`'s gossip view.
Result<size_t> AliveInView(p2prange::rpc::TcpTransport& transport,
                           const NetAddress& member) {
  p2prange::rpc::Transport::CallOptions options;
  options.deadline_ms = 500.0;
  ASSIGN_OR_RETURN(
      auto reply,
      transport.Call(NetAddress{}, member, p2prange::rpc::MsgType::kGossip,
                     p2prange::rpc::EncodeViewMessage({}), options));
  ASSIGN_OR_RETURN(auto entries, p2prange::rpc::DecodeViewMessage(reply.body));
  size_t alive = 0;
  for (const auto& e : entries) {
    alive += e.status == p2prange::rpc::MemberStatus::kAlive ? 1 : 0;
  }
  return alive;
}

uint64_t MtimeNs(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(st.st_mtim.tv_nsec);
}

}  // namespace

Result<uint64_t> JsonCounter(const std::string& json, const std::string& section,
                             const std::string& key) {
  const size_t begin = json.find("\"" + section + "\":{");
  if (begin == std::string::npos) {
    return Status::NotFound("no section " + section);
  }
  const size_t end = json.find('}', begin);
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, begin);
  if (at == std::string::npos || at > end) {
    return Status::NotFound("no field " + section + "." + key);
  }
  return static_cast<uint64_t>(
      std::strtoull(json.c_str() + at + needle.size(), nullptr, 10));
}

std::vector<std::string> DaemonFlags() {
  return {"--replication=2",      "--workers=1",
          "--queue_depth=128",    "--probe_ms=200",
          "--gossip_ms=200",      "--stabilize_ms=200",
          "--probe_timeout_ms=500", "--handoff_deadline_ms=2000",
          "--quiet"};
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

bool Daemon::Exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return true;
  }
  return false;
}

Status Daemon::Terminate(double timeout_s) {
  if (pid_ <= 0) return Status::Internal("daemon already exited");
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      return Status::Internal("daemon " + addr_.ToString() +
                              " exited uncleanly (wait status " +
                              std::to_string(status) + ")");
    }
    SleepMs(10);
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return Status::IOError("daemon " + addr_.ToString() +
                         " ignored SIGTERM; killed");
}

Result<ProcSample> SampleProc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  ProcSample sample;
  {
    std::ifstream in(base + "/stat");
    std::string line;
    if (!std::getline(in, line)) return Status::IOError("read " + base + "/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const size_t close = line.rfind(')');
    if (close == std::string::npos) return Status::IOError("bad stat line");
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    uint64_t utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    sample.cpu_s = static_cast<double>(utime + stime) /
                   static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  {
    std::ifstream in(base + "/io");
    std::string key;
    uint64_t value = 0;
    bool found = false;
    while (in >> key >> value) {
      if (key == "wchar:") {
        sample.wchar = value;
        found = true;
      }
    }
    if (!found) return Status::IOError("no wchar in " + base + "/io");
  }
  {
    std::ifstream in(base + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        sample.vm_hwm_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
      }
    }
    if (sample.vm_hwm_kb == 0) return Status::IOError("no VmHWM for " + base);
  }
  return sample;
}

Result<NodeCounters> ParseNodeCounters(const std::string& json) {
  NodeCounters c;
  ASSIGN_OR_RETURN(c.descriptors_stored,
                   JsonCounter(json, "node", "descriptors_stored"));
  ASSIGN_OR_RETURN(c.probes_served, JsonCounter(json, "node", "probes_served"));
  ASSIGN_OR_RETURN(c.probe_hits, JsonCounter(json, "node", "probe_hits"));
  ASSIGN_OR_RETURN(c.checkpoints, JsonCounter(json, "node", "checkpoints"));
  ASSIGN_OR_RETURN(c.partitions_fetched,
                   JsonCounter(json, "node", "partitions_fetched"));
  ASSIGN_OR_RETURN(c.requests_served,
                   JsonCounter(json, "rpc", "requests_served"));
  ASSIGN_OR_RETURN(c.bytes_in, JsonCounter(json, "rpc", "bytes_in"));
  ASSIGN_OR_RETURN(c.bytes_out, JsonCounter(json, "rpc", "bytes_out"));
  ASSIGN_OR_RETURN(c.executor_shed, JsonCounter(json, "executor", "shed"));
  return c;
}

Result<NodeCounters> ReadNodeCounters(const std::string& path) {
  std::ifstream in(path);
  std::string json;
  if (!std::getline(in, json)) return Status::IOError("cannot read " + path);
  return ParseNodeCounters(json);
}

Result<std::unique_ptr<Fleet>> Fleet::Boot(const std::string& binary,
                                           const std::string& dir, size_t size,
                                           bool durable) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  p2prange::rpc::TcpTransport transport;
  for (size_t i = 0; i < size; ++i) {
    const std::string join =
        i == 0 ? "" : fleet->daemons_[0]->address().ToString();
    Status up = Status::Internal("never launched");
    for (int attempt = 0; attempt < kBootAttempts; ++attempt) {
      const std::string name =
          "n" + std::to_string(i) +
          (attempt == 0 ? "" : ".r" + std::to_string(attempt));
      ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon,
                       Launch(binary, dir, name, join, durable));
      up = AwaitUp(*daemon, transport);
      if (up.ok()) {
        fleet->daemons_.push_back(std::move(daemon));
        break;
      }
      // Died while booting (its reserved port was taken in between):
      // relaunch on a fresh port. Anything else is fatal.
      if (!up.IsUnavailable()) return up;
      ++fleet->relaunches_;
    }
    RETURN_NOT_OK(up);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kConvergeTimeoutS);
  for (;;) {
    bool converged = true;
    for (const auto& d : fleet->daemons_) {
      auto alive = AliveInView(transport, d->address());
      if (!alive.ok() || *alive != size) converged = false;
    }
    if (converged) break;
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::IOError("ring of " + std::to_string(size) +
                             " never converged");
    }
    SleepMs(10);
  }
  return fleet;
}

Fleet::~Fleet() = default;

std::vector<NetAddress> Fleet::members() const {
  std::vector<NetAddress> out;
  for (const auto& d : daemons_) out.push_back(d->address());
  return out;
}

Result<std::vector<NodeCounters>> Fleet::FreshCounters(
    uint64_t after_ns, double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::vector<NodeCounters> out(daemons_.size());
  for (size_t i = 0; i < daemons_.size(); ++i) {
    const std::string& path = daemons_[i]->metrics_path();
    while (MtimeNs(path) <= after_ns) {
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::IOError("metrics file " + path + " never refreshed");
      }
      SleepMs(10);
    }
    ASSIGN_OR_RETURN(out[i], ReadNodeCounters(path));
  }
  return out;
}

Status Fleet::TerminateAll() {
  Status first;
  // One at a time: a daemon hands its descriptors to a successor that
  // is still up, instead of waiting out its handoff deadline.
  for (auto& d : daemons_) {
    const Status st = d->Terminate(/*timeout_s=*/15.0);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

uint64_t RealtimeNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
