// Shared CLI parsing for the figure and ablation benches.
//
// Every bench accepts an optional positional scale argument (query
// count, duration, ...) plus `--smoke`, which selects a tiny
// configuration that exercises the full harness in well under a
// second. tools/check.sh runs each binary with --smoke so that
// signature-affecting regressions in the figure harnesses are caught
// before anyone pays for a full regeneration run.
#ifndef P2PRANGE_BENCH_BENCH_ARGS_H_
#define P2PRANGE_BENCH_BENCH_ARGS_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace p2prange {
namespace bench {

/// True when `--smoke` is anywhere in argv.
inline bool SmokeFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// Scale from argv: `--smoke` anywhere wins and selects `smoke`;
/// otherwise the first parsable positive number overrides `full`.
inline double ScaleFromArgs(int argc, char** argv, double full, double smoke) {
  if (SmokeFromArgs(argc, argv)) return smoke;
  double scale = full;
  bool overridden = false;
  for (int i = 1; i < argc; ++i) {
    if (!overridden) {
      const double v = std::strtod(argv[i], nullptr);
      if (v > 0) {
        scale = v;
        overridden = true;
      }
    }
  }
  return scale;
}

/// ScaleFromArgs for integer-count benches.
inline size_t CountFromArgs(int argc, char** argv, size_t full, size_t smoke) {
  return static_cast<size_t>(ScaleFromArgs(argc, argv,
                                           static_cast<double>(full),
                                           static_cast<double>(smoke)));
}

}  // namespace bench
}  // namespace p2prange

#endif  // P2PRANGE_BENCH_BENCH_ARGS_H_
