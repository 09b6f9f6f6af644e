#ifndef RRQ_PERFBENCH_WORKLOADS_H_
#define RRQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The rrqd binary every untraced measurement spawns.
  std::string rrqd;
  /// Where state dirs are created (each run removes its own).
  std::string state_root;
  /// Where a traced run writes its spans ("" = do not write).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  /// False when the set-up itself failed (no result is printed).
  bool ran = false;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

RunOutcome RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // RRQ_PERFBENCH_WORKLOADS_H_
