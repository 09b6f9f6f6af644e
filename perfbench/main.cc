// rrq_perfbench — the repository benchmark (see README.md).
//
//   rrq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --rrqd <path> --state-root <dir> [--trace-dir <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 0 when
// every output was correct, 1 when a correctness check failed (the JSON
// is still printed), 2 when the run could not be set up (no JSON).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: rrq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --rrqd <path> --state-root <dir> "
               "[--trace-dir <dir>]\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--rrqd") {
      cfg.rrqd = value;
    } else if (flag == "--state-root") {
      cfg.state_root = value;
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == cfg.workload;
  }
  if (!known || cfg.seconds <= 0 || cfg.rrqd.empty() ||
      cfg.state_root.empty()) {
    Usage();
    return 2;
  }

  perfbench::RunOutcome outcome = perfbench::RunWorkload(cfg);
  if (!outcome.ran) {
    std::fprintf(stderr, "rrq_perfbench: %s: %s\n", cfg.workload.c_str(),
                 outcome.error.c_str());
    return 2;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  if (!correct) {
    std::fprintf(stderr, "rrq_perfbench: %s: correctness violation: %s\n",
                 cfg.workload.c_str(), outcome.error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
