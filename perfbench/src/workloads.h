// The benchmark's workloads. Each one builds its inputs from the run
// seed, measures, checks every answer (CheckThat), prints its
// conditions, and returns the metrics of its kind: end-to-end ones on
// an untraced run, per-layer ones on a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "report.h"

namespace perfbench {

/// Lookup only, against a corpus seeded during set-up.
Outcome RunLiveRead(const RunArgs& args);
/// The paper's §4 query: lookup, fetch, and cache-on-miss writes.
Outcome RunLiveCacheOnMiss(const RunArgs& args);
/// In-process ScenarioEngine (Chord, uniform ranges, steady churn).
Outcome RunEngineChurn(const RunArgs& args);

/// Every per-layer metric, zeroed: a traced run reports them all, and
/// one that does not apply to the workload stays 0.
void AddPerLayerDefaults(Metrics* metrics);

/// SplitMix64 step: derives independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Microbenchmark of the frame layer: AppendFrame plus an incremental
/// parse of payloads of `payload_bytes`, in MB/s of payload.
double MeasureFrameMbPerS(size_t payload_bytes, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
