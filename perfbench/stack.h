#ifndef RRQ_PERFBENCH_STACK_H_
#define RRQ_PERFBENCH_STACK_H_

// The two ways the benchmark hosts rrqd:
//  - Daemon: a real rrqd child process (default flags, PosixEnv, real
//    fdatasync), which every untraced measurement drives;
//  - HostedRrqd: the same stack wired exactly as rrqd_main.cc wires it,
//    but inside the benchmark process, so the traced run can wrap the
//    layers' public seams (env, dispatcher, request handler).
// Plus the client stacks both are driven through, and the small
// process/filesystem helpers the workloads share.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/reliable_client.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"
#include "server/server.h"
#include "storage/kv_store.h"
#include "testing/subprocess.h"
#include "txn/txn_manager.h"
#include "util/result.h"
#include "util/status.h"

namespace perfbench {

using rrq::Result;
using rrq::Slice;
using rrq::Status;

class Tracer;
class TracingEnv;

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// A fresh directory under `root`, created with mkdtemp. Owned: the
/// destructor removes the whole tree, so every exit path — a failed run
/// included — leaves nothing behind.
class StateDir {
 public:
  StateDir(const std::string& root, const std::string& tag);
  ~StateDir();
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

/// Removes `path` and everything below it (best effort).
void RemoveTree(const std::string& path);
/// Sum of the sizes of the regular files below `path`.
uint64_t TreeBytes(const std::string& path);
/// Peak resident set (VmHWM) of process `pid` in MiB, read from /proc;
/// 0 when unreadable.
double ReadVmHwmMb(int pid);

/// A real rrqd child over one state directory. The destructor SIGKILLs
/// and reaps a child still running.
class Daemon {
 public:
  Daemon(std::string binary, std::string dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns rrqd --dir <dir> --port 0 <extra...> and waits for its
  /// "listening" line. *startup_s (optional) is spawn → that line.
  Status Start(const std::vector<std::string>& extra, double* startup_s);
  /// SIGKILL + reap: the crash the paper's recovery must survive.
  void Kill();

  uint16_t port() const { return port_; }
  int pid() const { return child_.pid(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string binary_;
  std::string dir_;
  rrq::testing::Subprocess child_;
  uint16_t port_ = 0;
};

/// rrqd's stack in-process, wired as rrqd_main.cc wires it (same
/// defaults: one server thread, hardware-concurrency workers and
/// shards, io backend auto), for the traced run: the repository,
/// coordinator and KvStore sit on a TracingEnv, the TCP handler times
/// QueueServiceDispatcher::Handle and the request handler is wrapped in
/// a timer, all recording into `tracer` (not owned).
class HostedRrqd {
 public:
  HostedRrqd(std::string dir, Tracer* tracer);
  ~HostedRrqd();
  HostedRrqd(const HostedRrqd&) = delete;
  HostedRrqd& operator=(const HostedRrqd&) = delete;

  /// Opens txn → qm → db (rrqd's order; each Open is timed), provisions
  /// the request queue and, when `run_server`, starts the request
  /// server; then starts listening.
  Status Start(bool run_server);
  void Stop();

  uint16_t port() const { return tcp_ != nullptr ? tcp_->port() : 0; }
  rrq::queue::QueueRepository* repo() { return repo_.get(); }
  rrq::storage::KvStore* db() { return db_.get(); }
  rrq::txn::TransactionManager* txn() { return txn_.get(); }
  rrq::server::Server* server() { return server_.get(); }
  rrq::net::TcpServer* tcp() { return tcp_.get(); }

  double txn_open_s = 0;
  double qm_open_s = 0;
  double db_open_s = 0;

 private:
  std::string dir_;
  Tracer* tracer_;
  std::unique_ptr<TracingEnv> env_;
  std::unique_ptr<rrq::txn::TransactionManager> txn_;
  std::unique_ptr<rrq::queue::QueueRepository> repo_;
  std::unique_ptr<rrq::storage::KvStore> db_;
  std::unique_ptr<rrq::server::Server> server_;
  std::unique_ptr<rrq::net::QueueServiceDispatcher> dispatcher_;
  std::unique_ptr<rrq::net::TcpServer> tcp_;
};

/// Names shared by the daemon and its clients.
inline constexpr const char* kRequestQueue = "requests";

/// The Fig 2 client side: N reliable clerks multiplexed on one
/// connection. Untraced, this is client::ClerkPool itself; traced, the
/// same per-slot ReliableClient wiring over a timing channel decorator
/// (ClerkPool owns its TcpChannel, so a decorator cannot be slid under
/// it from outside).
class Clerks {
 public:
  virtual ~Clerks() = default;
  virtual Status Start() = 0;
  virtual Status Stop() = 0;
  /// Reliable Fig 2 execution on slot i (one caller per slot).
  virtual Result<std::string> Execute(size_t i, const Slice& body) = 0;
  virtual rrq::net::TcpChannel* channel() = 0;
  /// Reconnects beyond each slot's first Connect.
  virtual uint64_t resyncs() const = 0;
  /// Slot i's client id; its k-th request (k >= 1) carries rid
  /// "<client id>#k" on a fresh state directory.
  static std::string ClientId(size_t i) { return "pool-" + std::to_string(i); }
};

std::unique_ptr<Clerks> MakePoolClerks(uint16_t port, int clerks);
std::unique_ptr<Clerks> MakeTracedClerks(uint16_t port, int clerks,
                                         Tracer* tracer);

}  // namespace perfbench

#endif  // RRQ_PERFBENCH_STACK_H_
