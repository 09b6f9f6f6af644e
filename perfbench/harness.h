#ifndef RRQ_PERFBENCH_HARNESS_H_
#define RRQ_PERFBENCH_HARNESS_H_

// What the untraced (workloads.cc) and traced (layers.cc) passes share:
// the workload parameters, the correctness checker, the statistics
// helpers, and the workload cores that drive a client stack.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "stack.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

// ---- Fixed parameters (README.md explains each choice) -------------------

inline constexpr int kSetupRepeats = 9;     // setup_s: Undisturbed() of these
inline constexpr int kRecoverRepeats = 15;  // recover_s: Undisturbed() of these
inline constexpr size_t kBodyBytes = 200;   // request body
inline constexpr int kWarmupRequests = 200;
/// Latency and throughput are taken per window (or per repeat) and
/// reported at the run's undisturbed level: a time at the lower quartile
/// of its windows, a rate at the upper quartile (README.md "Steadiness").
inline constexpr double kWindowSeconds = 1.0;

/// request_serial runs this many requests per --seconds, about --seconds
/// at the seed's rate, so the history it leaves is the same size on every
/// run — unless the host is so slow that the loop would outlast
/// kSerialTimeCap × --seconds, where it stops early to keep the run
/// within its time limit.
inline constexpr int kSerialRequestsPerSecond = 1000;
inline constexpr double kSerialTimeCap = 2.0;
inline int SerialRequests(const RunConfig& cfg) {
  return static_cast<int>(kSerialRequestsPerSecond * cfg.seconds + 0.5);
}

/// request_load: 64 clerks on one socket. The first step is the
/// reference step, held for kReferenceShare of the run; the remaining
/// steps share the rest equally.
inline constexpr int kLoadClerks = 64;
inline constexpr double kReferenceRate = 500;
inline constexpr double kReferenceShare = 0.4;
inline constexpr double kReferenceWindowSeconds = 2.0;
inline constexpr double kStaircase[] = {700, 900, 1100, 1300, 1500, 1700};
inline constexpr double kLatencyLimitUs = 50'000;
/// A step's backlog grows when it ends more than this many requests (or
/// this share of the step's arrivals, if larger) above where it began.
inline constexpr int64_t kBacklogSlack = 16;
inline constexpr double kBacklogSlackShare = 0.02;

/// queue_volatile: connections × chains, one op in flight per chain.
inline constexpr int kVolConns = 4;
inline constexpr int kVolChains = 8;
inline constexpr size_t kVolPayloadBytes = 64;

/// The untraced queue_volatile pass runs this many pairs per --seconds,
/// a little under the seed's rate, so disk_bytes_per_req divides the
/// state dir by the same count on every run; like request_serial it
/// stops early after kVolTimeCap × --seconds on a very slow host.
inline constexpr int kVolPairsPerSecond = 80'000;
inline constexpr double kVolTimeCap = 2.0;
inline uint64_t VolatilePairsPerChain(const RunConfig& cfg) {
  return static_cast<uint64_t>(kVolPairsPerSecond * cfg.seconds /
                                   (kVolConns * kVolChains) +
                               0.5);
}

/// crash_recovery: the WAL history (completed Fig 2 requests), the
/// backlog left queued at the SIGKILL, and the audit's parallelism.
inline constexpr int kHistoryRequests = 8192;
inline constexpr int kBacklogConns = 4;
inline constexpr int kBacklog = 1024;
inline constexpr int kDrainChainsPerQueue = 8;

inline constexpr size_t kSpanCap = 1'500'000;
inline constexpr size_t kSpansWritten = 100'000;

// ---- Helpers ---------------------------------------------------------------

inline double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}
/// How a run reports a time and a rate it measured many times over.
inline double Undisturbed(std::vector<double> times) {
  return Percentile(std::move(times), 25);
}
inline double UndisturbedRate(std::vector<double> rates) {
  return Percentile(std::move(rates), 75);
}
double Mean(const std::vector<double>& v);

/// One timed unit of work: when it completed and how long it took.
struct Sample {
  int64_t end_ns = 0;
  double lat_us = 0;
};

/// Per-window p50/p90/p99/throughput over [t0, t1) across the full
/// windows (at least one: a run shorter than a window is one window),
/// each at its Undisturbed level; the mean is the median window's, so
/// that it compares with a traced pass's stage sums.
struct Windowed {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double throughput = 0;
  size_t windows = 0;
};
Windowed WindowStats(const std::vector<Sample>& samples, int64_t t0,
                     int64_t t1, double window_s);

std::string Payload(std::mt19937_64& rng, size_t n);
inline std::string ExpectedReply(const std::string& rid) {
  return "done:" + rid + ":1";
}

/// Counts attempts and failures; any failure fails the run.
class Checker {
 public:
  void Ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& why);
  /// A reply to slot `slot`'s seq-th request must carry that request's
  /// rid (Request–Reply Matching) and an execution count of 1
  /// (Exactly-Once Processing).
  void CheckReply(const Result<std::string>& r, size_t slot, uint64_t seq);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::string first();

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::string first_;
};

/// Counts down to zero; Wait() blocks until then.
class Latch {
 public:
  explicit Latch(int64_t n) : n_(n) {}
  void Done();
  void Wait();

 private:
  std::atomic<int64_t> n_;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The untraced end-to-end figures of one run.
struct E2E {
  double setup_s = 0;
  double throughput_rps = 0;
  double latency_p50_us = 0;
  double latency_p90_us = 0;  // the gated tail; see README.md "Steadiness"
  double latency_p99_us = 0;  // reported ungated, in traced runs
  double latency_mean_us = 0;
  double slo_rps = 0;
  double recover_s = 0;
  double drain_rps = 0;
  double daemon_rss_mb = 0;
  double disk_bytes_per_req = 0;
  double gen_late_p99_us = 0;
};

/// Queue-manager connections for the raw queue workloads: a TcpChannel
/// each, behind a TracingChannel when traced, under a ChannelQueueApi.
struct Conns {
  Conns(int n, uint16_t port, Tracer* tracer);
  std::vector<std::unique_ptr<rrq::net::TcpChannel>> tcp;
  std::vector<std::unique_ptr<TracingChannel>> traced;
  std::vector<std::unique_ptr<rrq::net::ChannelQueueApi>> api;
};

// ---- Workload cores ----------------------------------------------------------

struct LoopStats {
  std::vector<Sample> samples;
  std::vector<double> late_us;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

/// request_serial: slot 0 runs `requests` Fig 2 requests back to back,
/// stopping early after `max_seconds`.
LoopStats SerialLoop(Clerks* clerks, uint64_t* seq, std::mt19937_64& rng,
                     int requests, double max_seconds, Checker* check);

struct StepStats {
  double rate = 0;
  uint64_t arrivals = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t backlog_start = 0;
  int64_t backlog_end = 0;
  bool pass = false;
};

struct LoadStats {
  Windowed reference;  // the reference step, per kReferenceWindowSeconds
  std::vector<StepStats> steps;
  std::vector<double> late_us;
  double slo_rps = 0;
  double throughput_rps = 0;
  uint64_t completed = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;  // end of the staircase
};

/// request_load: seeded Poisson arrivals through the reference step and
/// the staircase; each arrival takes a free clerk, latency counts from
/// the due time.
LoadStats Staircase(Clerks* clerks, uint64_t seed, double seconds,
                    Checker* check);

struct PairStats {
  std::vector<Sample> samples;
  std::vector<double> late_us;  // a pair's issue − its predecessor's end
  uint64_t pairs = 0;
  int64_t t0 = 0;
  int64_t t1 = 0;
};

/// queue_volatile: kVolChains chains per connection of enqueue→dequeue
/// pairs on the chain's own queue, until `pairs_per_chain` or `seconds`.
PairStats RunPairs(Conns* conns, uint64_t pairs_per_chain, double seconds,
                   uint64_t seed, Checker* check, Tracer* tracer);
Status CreateVolatileQueues(Conns* conns);

// ---- Set-up --------------------------------------------------------------------

/// A fresh rrqd child plus the client stack a workload drives it with.
struct Rig {
  std::unique_ptr<StateDir> dir;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Clerks> clerks;
  std::unique_ptr<Conns> conns;
};

/// The workload's client stack on a started rig.
using ClientSetUp = Status (*)(Rig* rig);
Status StartOneClerk(Rig* rig);
Status StartLoadPool(Rig* rig);
Status StartVolatileConns(Rig* rig);

/// Sets up kSetupRepeats rigs on fresh state dirs (spawn → client stack
/// ready), keeps the last and tears the others down; *setup_s is their
/// Undisturbed() time.
Status SetUpRig(const RunConfig& cfg, ClientSetUp client, Rig* out,
                double* setup_s);

/// crash_recovery's fixed history on the rig (a 64-clerk pool): Fig 2
/// requests with the server on, then, after a SIGKILL, the backlog
/// enqueued with rrqd restarted under --no-server; ends SIGKILLed.
Status BuildCrashHistory(const RunConfig& cfg, Rig* rig, Checker* check);

struct DrainStats {
  std::vector<double> lat_us;  // restart spawn → reply received
  std::vector<double> late_us;  // a dequeue's issue − its predecessor's end
  int64_t last_reply_ns = 0;
  uint64_t replies = 0;
};

/// Dequeues every backlog reply from the audit queues and checks each
/// rid answered exactly once with "done:<rid>:1"; then that nothing is
/// left in the request or audit queues.
DrainStats DrainAndAudit(Conns* conns, int64_t t_spawn, Checker* check);

/// Copies a state dir (the killed history) to a fresh path.
Status CopyTree(const std::string& from, const std::string& to);

// ---- The traced pass (layers.cc) ---------------------------------------------

/// Repeats the workload against HostedRrqd behind the timing decorators
/// and appends every per-layer metric to *out. `untraced` is the same
/// run's untraced pass (for bench.trace_overhead); `history` is
/// crash_recovery's killed state dir ("" for the other workloads).
Status RunTraced(const RunConfig& cfg, const E2E& untraced,
                 const std::string& history, Checker* check,
                 std::vector<Metric>* out);

}  // namespace perfbench

#endif  // RRQ_PERFBENCH_HARNESS_H_
