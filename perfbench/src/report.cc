#include "report.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

uint64_t g_checks_failed = 0;

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           JsonNumber(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

void CheckThat(bool condition, const std::string& what) {
  if (condition) return;
  ++g_checks_failed;
  // Only the first few are spelled out; the count says the rest.
  if (g_checks_failed <= 10) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

bool AllChecksPassed() { return g_checks_failed == 0; }
uint64_t ChecksFailed() { return g_checks_failed; }

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int Tracer::Begin(const char* name, uint64_t query, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.query = query;
  s.parent = parent;
  s.cpu_start_ns = ThreadCpuNs();
  s.start_ns = WallNs();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (span < 0) return;
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = WallNs();
  s.cpu_end_ns = ThreadCpuNs();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::TotalWallUs(const std::string& name) const {
  double sum = 0.0;
  for (const double d : DurationsUs(name)) sum += d;
  return sum;
}

double Tracer::TotalCpuUs(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      sum += static_cast<double>(s.cpu_end_ns - s.cpu_start_ns) / 1e3;
    }
  }
  return sum;
}

double Tracer::TotalSelfUs(const std::string& name) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double sum = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    sum += (static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
            child_ns[i]) /
           1e3;
  }
  return sum;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"query\":" << s.query << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"cpu_ns\":" << (s.cpu_end_ns - s.cpu_start_ns) << "}\n";
  }
  return static_cast<bool>(out);
}

void PrintCondition(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

}  // namespace perfbench
