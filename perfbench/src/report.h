// Shared pieces of the benchmark runner: the run's arguments, the
// result line, correctness checks, order statistics, and the span
// recorder of the traced run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for temp dirs and trace files.
  std::string work_dir;
};

/// \brief Named metrics in insertion order, printed as the result's
/// "metrics" object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// \brief What a workload hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

/// \brief Records a failed correctness check (stderr) without stopping
/// the run; main() then exits non-zero and prints no result.
void CheckThat(bool condition, const std::string& what);
bool AllChecksPassed();
uint64_t ChecksFailed();

/// Order statistic by linear interpolation between closest ranks
/// (p in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double p);

/// Monotonic wall clock and this thread's CPU clock, in nanoseconds.
uint64_t WallNs();
uint64_t ThreadCpuNs();

/// \brief In-memory span recorder. Each span has a name, start, end,
/// parent and query id, plus this thread's CPU clock at both ends.
/// Disabled, Begin() returns -1 and End(-1) is a no-op, so untraced
/// runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t query, int parent = -1);
  void End(int span);

  /// Wall durations (µs) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Σ over spans named `name` of wall (µs) and thread CPU (µs).
  double TotalWallUs(const std::string& name) const;
  double TotalCpuUs(const std::string& name) const;
  /// Σ over spans named `name` of their self time: wall duration minus
  /// the part covered by child spans (µs).
  double TotalSelfUs(const std::string& name) const;

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    uint64_t query = 0;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t cpu_start_ns = 0;
    uint64_t cpu_end_ns = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// \brief Prints one "# key: value" line of the run's conditions.
void PrintCondition(const std::string& key, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
