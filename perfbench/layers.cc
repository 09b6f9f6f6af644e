// The traced pass: the workload again, against rrqd's stack hosted
// in-process (HostedRrqd) behind the timing decorators of trace.h, and
// the per-layer metrics computed from its spans and from the layers'
// own counters. README.md lists which end-to-end metric each one should
// move.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "harness.h"

namespace perfbench {

namespace {

using rrq::net::TcpChannel;

// Counters read from the layers' public getters around the measured
// window.
struct Snap {
  uint64_t env_syncs[4] = {};
  uint64_t env_bytes[4] = {};
  uint64_t qm_syncs = 0, qm_sync_requests = 0, qm_bytes = 0;
  uint64_t db_syncs = 0, db_sync_requests = 0;
  uint64_t commits = 0, aborts = 0;
  uint64_t processed = 0, server_aborts = 0;
  uint64_t server_io = 0, served = 0, client_io = 0;
  uint64_t late = 0, expiries = 0;
};

Snap TakeSnap(Tracer* tracer, HostedRrqd* host,
              const std::vector<TcpChannel*>& channels) {
  Snap s;
  for (int o = 0; o < 4; ++o) {
    s.env_syncs[o] = tracer->env(static_cast<Owner>(o)).syncs.load();
    s.env_bytes[o] = tracer->env(static_cast<Owner>(o)).append_bytes.load();
  }
  s.qm_syncs = host->repo()->wal_sync_count();
  s.qm_sync_requests = host->repo()->wal_sync_request_count();
  s.qm_bytes = host->repo()->wal_bytes();
  s.db_syncs = host->db()->wal_sync_count();
  s.db_sync_requests = host->db()->wal_sync_request_count();
  s.commits = host->txn()->commit_count();
  s.aborts = host->txn()->abort_count();
  if (host->server() != nullptr) {
    s.processed = host->server()->processed_count();
    s.server_aborts = host->server()->aborted_count();
  }
  s.server_io = host->tcp()->io_stats().io_syscalls();
  s.served = host->tcp()->requests_served();
  for (TcpChannel* c : channels) {
    s.client_io += c->io_stats().io_syscalls();
    s.late += c->late_replies();
    s.expiries += c->deadline_expiries();
  }
  return s;
}

// Polls the request queue's depth (the Depth admin op) on its own
// untraced connection while a traced pass runs.
class DepthPoller {
 public:
  explicit DepthPoller(uint16_t port)
      : channel_(Options(port)), api_(&channel_),
        thread_([this]() { Loop(); }) {}
  ~DepthPoller() {
    stop_.store(true);
    thread_.join();
  }
  DepthPoller(const DepthPoller&) = delete;
  DepthPoller& operator=(const DepthPoller&) = delete;

  size_t max() const { return max_.load(); }

 private:
  static rrq::net::TcpChannelOptions Options(uint16_t port) {
    rrq::net::TcpChannelOptions options;
    options.port = port;
    return options;
  }
  void Loop() {
    while (!stop_.load()) {
      auto depth = api_.Depth(kRequestQueue);
      if (depth.ok() && *depth > max_.load()) max_.store(*depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  TcpChannel channel_;
  rrq::net::ChannelQueueApi api_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> max_{0};
  std::thread thread_;  // last: it uses the members above
};

// What one traced workload pass produced.
struct Pass {
  int64_t t0 = 0;  // the measured window
  int64_t t1 = 0;
  uint64_t units = 0;  // requests (or pairs, or backlog replies) done in it
  Snap before;
  Snap after;
  Windowed e2e;  // the traced pass's own end-to-end figures
  size_t depth_max = 0;
  uint64_t resyncs = 0;
  double txn_open_s = 0;
  double qm_open_s = 0;
  double db_open_s = 0;
  uint64_t wal_bytes_read = 0;
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
  int64_t first_drop_ns = INT64_MAX;
};

// Reopens a stopped traced stack's state dir in-process and times each
// Open(), as crash_recovery's traced pass does for the killed history.
Status ReopenTimed(const std::string& dir, Pass* pass) {
  Tracer tracer(0);
  HostedRrqd host(dir, &tracer);
  RRQ_RETURN_IF_ERROR(host.Start(/*run_server=*/false));
  pass->txn_open_s = host.txn_open_s;
  pass->qm_open_s = host.qm_open_s;
  pass->db_open_s = host.db_open_s;
  for (int o = 0; o < 4; ++o) {
    pass->wal_bytes_read += tracer.env(static_cast<Owner>(o)).read_bytes.load();
  }
  return Status::OK();
}

Status TracedRequests(const RunConfig& cfg, Checker* check, Pass* pass) {
  const bool serial = cfg.workload == "request_serial";
  StateDir dir(cfg.state_root, cfg.workload + "-traced");
  if (!dir.ok()) return Status::IOError("mkdtemp under " + cfg.state_root);
  {
    Tracer tracer(kSpanCap);
    HostedRrqd host(dir.path(), &tracer);
    RRQ_RETURN_IF_ERROR(host.Start(/*run_server=*/true));
    std::unique_ptr<Clerks> clerks =
        MakeTracedClerks(host.port(), serial ? 1 : kLoadClerks, &tracer);
    RRQ_RETURN_IF_ERROR(clerks->Start());
    std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 3);
    uint64_t seq = 0;
    if (serial) {
      SerialLoop(clerks.get(), &seq, rng, kWarmupRequests, cfg.seconds, check);
    }
    {
      DepthPoller poller(host.port());
      pass->before = TakeSnap(&tracer, &host, {clerks->channel()});
      if (serial) {
        LoopStats loop =
            SerialLoop(clerks.get(), &seq, rng, SerialRequests(cfg),
                       kSerialTimeCap * cfg.seconds, check);
        pass->t0 = loop.t0;
        pass->t1 = loop.t1;
        pass->units = loop.samples.size();
        pass->e2e = WindowStats(loop.samples, loop.t0, loop.t1, kWindowSeconds);
      } else {
        LoadStats load = Staircase(clerks.get(), cfg.seed, cfg.seconds, check);
        pass->t0 = load.t0;
        pass->t1 = NowNs();
        pass->units = load.completed;
        pass->e2e = load.reference;
        pass->e2e.throughput = load.throughput_rps;
      }
      pass->after = TakeSnap(&tracer, &host, {clerks->channel()});
      pass->depth_max = poller.max();
    }
    pass->resyncs = clerks->resyncs();
    (void)clerks->Stop();
    clerks.reset();
    host.Stop();
    pass->spans = tracer.Collect();
    pass->spans_dropped = tracer.dropped();
  pass->first_drop_ns = tracer.first_drop_ns();
  }
  return ReopenTimed(dir.path(), pass);
}

Status TracedVolatile(const RunConfig& cfg, Checker* check, Pass* pass) {
  StateDir dir(cfg.state_root, cfg.workload + "-traced");
  if (!dir.ok()) return Status::IOError("mkdtemp under " + cfg.state_root);
  {
    Tracer tracer(kSpanCap);
    HostedRrqd host(dir.path(), &tracer);
    RRQ_RETURN_IF_ERROR(host.Start(/*run_server=*/true));
    Conns conns(kVolConns, host.port(), &tracer);
    RRQ_RETURN_IF_ERROR(CreateVolatileQueues(&conns));
    RunPairs(&conns, 50, 0, cfg.seed, check, nullptr);
    std::vector<TcpChannel*> channels;
    for (auto& c : conns.tcp) channels.push_back(c.get());
    {
      DepthPoller poller(host.port());
      pass->before = TakeSnap(&tracer, &host, channels);
      PairStats pairs =
          RunPairs(&conns, UINT64_MAX, cfg.seconds, cfg.seed, check, &tracer);
      pass->after = TakeSnap(&tracer, &host, channels);
      pass->t0 = pairs.t0;
      pass->t1 = pairs.t1;
      pass->units = pairs.pairs;
      pass->e2e = WindowStats(pairs.samples, pairs.t0, pairs.t1, kWindowSeconds);
      pass->depth_max = poller.max();
    }
    host.Stop();
    pass->spans = tracer.Collect();
    pass->spans_dropped = tracer.dropped();
  pass->first_drop_ns = tracer.first_drop_ns();
  }
  return ReopenTimed(dir.path(), pass);
}

Status TracedCrash(const RunConfig& cfg, const std::string& history,
                   Checker* check, Pass* pass) {
  StateDir dir(cfg.state_root, cfg.workload + "-traced");
  if (!dir.ok()) return Status::IOError("mkdtemp under " + cfg.state_root);
  RRQ_RETURN_IF_ERROR(CopyTree(history, dir.path()));
  Tracer tracer(kSpanCap);
  HostedRrqd host(dir.path(), &tracer);
  const int64_t t_spawn = NowNs();
  RRQ_RETURN_IF_ERROR(host.Start(/*run_server=*/true));
  pass->txn_open_s = host.txn_open_s;
  pass->qm_open_s = host.qm_open_s;
  pass->db_open_s = host.db_open_s;
  for (int o = 0; o < 4; ++o) {
    pass->wal_bytes_read += tracer.env(static_cast<Owner>(o)).read_bytes.load();
  }
  {
    Conns conns(kBacklogConns, host.port(), &tracer);
    std::vector<TcpChannel*> channels;
    for (auto& c : conns.tcp) channels.push_back(c.get());
    DepthPoller poller(host.port());
    pass->before = TakeSnap(&tracer, &host, channels);
    pass->t0 = NowNs();
    DrainStats drain = DrainAndAudit(&conns, t_spawn, check);
    pass->t1 = NowNs();
    pass->after = TakeSnap(&tracer, &host, channels);
    pass->units = drain.replies;
    pass->depth_max = poller.max();
    pass->e2e.p50_us = Percentile(drain.lat_us, 50);
    pass->e2e.p99_us = Percentile(drain.lat_us, 99);
    pass->e2e.mean_us = Mean(drain.lat_us);
    pass->e2e.throughput = drain.replies / Seconds(pass->t1 - pass->t0);
  }
  host.Stop();
  pass->spans = tracer.Collect();
  pass->spans_dropped = tracer.dropped();
  pass->first_drop_ns = tracer.first_drop_ns();
  return Status::OK();
}

// ---- Span analysis -----------------------------------------------------------

constexpr uint8_t kOpEnqueue = rrq::net::kOpEnqueue;
constexpr uint8_t kOpDequeue = rrq::net::kOpDequeue;

int64_t Dur(const Span& s) { return s.end_ns - s.start_ns; }

double MeanUs(const std::vector<int64_t>& ns) {
  if (ns.empty()) return 0;
  double sum = 0;
  for (int64_t x : ns) sum += static_cast<double>(x);
  return sum / static_cast<double>(ns.size()) / 1e3;
}

// Stage labels, lowest priority first: at each instant the highest-
// priority active span owns the time.
enum Stage {
  kStageClient = 0,
  kStageNet,
  kStageQueue,
  kStageServer,
  kStageStorage,
  kStageEnvQm,
  kStageEnvDb,
  kStageEnvTxn,
  kStageCount,
};
const char* const kStageNames[kStageCount] = {
    "stage.client_us", "stage.net_us",     "stage.queue_us",
    "stage.server_us", "stage.storage_us", "stage.env_qm_us",
    "stage.env_db_us", "stage.env_txn_us"};

struct Interval {
  int64_t start;
  int64_t end;
  int stage;
};

// Wall time per stage over [t0, t1]: a sweep that gives each instant to
// the highest-priority interval covering it. With `in_client`, only
// instants inside a client (kStageClient) interval count — a request's
// critical path, not the server's commit work that continues after its
// reply arrived. Instants no interval covers belong to no stage.
std::vector<int64_t> Partition(const std::vector<Interval>& intervals,
                               int64_t t0, int64_t t1, bool in_client) {
  std::vector<std::pair<int64_t, int>> events;  // (time, +stage+1 / -(stage+1))
  for (const Interval& iv : intervals) {
    const int64_t a = std::max(iv.start, t0);
    const int64_t b = std::min(iv.end, t1);
    if (a >= b) continue;
    events.push_back({a, iv.stage + 1});
    events.push_back({b, -(iv.stage + 1)});
  }
  std::sort(events.begin(), events.end());
  std::vector<int64_t> out(kStageCount, 0);
  int active[kStageCount] = {};
  int64_t prev = t0;
  for (const auto& [t, e] : events) {
    for (int s = kStageCount - 1;
         s >= 0 && (!in_client || active[kStageClient] > 0); --s) {
      if (active[s] > 0) {
        out[s] += t - prev;
        break;
      }
    }
    prev = t;
    active[std::abs(e) - 1] += e > 0 ? 1 : -1;
  }
  return out;
}

struct Analysis {
  std::vector<Metric> metrics;
  std::vector<Span> window;  // spans inside the measured window, sorted
};

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back({name, value, unit});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Analysis Analyze(const Pass& pass, const E2E& untraced) {
  Analysis a;
  // Counter-based metrics cover the whole window; span-based ones only
  // the part before the span cap was hit.
  const int64_t t0 = pass.t0;
  const int64_t t1 = std::min(pass.t1, pass.first_drop_ns);
  for (const Span& s : pass.spans) {
    if (s.start_ns >= t0 && s.end_ns <= t1) a.window.push_back(s);
  }
  std::sort(a.window.begin(), a.window.end(),
            [](const Span& x, const Span& y) { return x.start_ns < y.start_ns; });

  // Per-rid request events: send ack (enqueue call end), reply received
  // (last dequeue call end), and the handler span.
  struct RidEvents {
    int64_t send_ack = -1;
    int64_t reply = -1;
    int64_t h0 = -1;
    int64_t h1 = -1;
    uint32_t server_tid = 0;
    int64_t server_end = -1;  // end of the server's commit work
  };
  std::map<uint64_t, RidEvents> rids;
  std::vector<int64_t> enq_calls, deq_calls, nb_calls, nb_handles;
  std::map<uint8_t, std::vector<int64_t>> handles_by_op;
  std::vector<int64_t> handlers;
  std::vector<double> sync_us;
  size_t calls = 0, executes = 0;
  // env spans per thread, for "inside this span on the same thread".
  std::map<uint32_t, std::vector<const Span*>> env_by_tid;
  std::map<uint32_t, std::vector<const Span*>> handler_by_tid;
  for (const Span& s : a.window) {
    switch (s.kind) {
      case SpanKind::kExecute:
        ++executes;
        break;
      case SpanKind::kCall:
        ++calls;
        if (s.op == kOpEnqueue) enq_calls.push_back(Dur(s));
        if (s.op == kOpDequeue) deq_calls.push_back(Dur(s));
        if (!s.blocking && (s.op == kOpEnqueue || s.op == kOpDequeue)) {
          nb_calls.push_back(Dur(s));
        }
        if (s.rid != 0 && s.op == kOpEnqueue) rids[s.rid].send_ack = s.end_ns;
        if (s.rid != 0 && s.op == kOpDequeue) {
          rids[s.rid].reply = std::max(rids[s.rid].reply, s.end_ns);
        }
        break;
      case SpanKind::kHandle:
        if (s.op == kOpEnqueue || s.op == kOpDequeue) {
          handles_by_op[s.op].push_back(Dur(s));
          if (!s.blocking) nb_handles.push_back(Dur(s));
        }
        break;
      case SpanKind::kHandler:
        handlers.push_back(Dur(s));
        handler_by_tid[s.tid].push_back(&s);
        if (s.rid != 0) {
          rids[s.rid].h0 = s.start_ns;
          rids[s.rid].h1 = s.end_ns;
          rids[s.rid].server_tid = s.tid;
        }
        break;
      case SpanKind::kSync:
        sync_us.push_back(Micros(Dur(s)));
        env_by_tid[s.tid].push_back(&s);
        break;
      case SpanKind::kAppend:
        env_by_tid[s.tid].push_back(&s);
        break;
      default:
        break;
    }
  }
  // Env time on `tid` inside [from, to).
  auto env_inside = [&](uint32_t tid, int64_t from, int64_t to) {
    int64_t total = 0;
    auto it = env_by_tid.find(tid);
    if (it == env_by_tid.end()) return total;
    const auto& v = it->second;
    auto lo = std::lower_bound(
        v.begin(), v.end(), from,
        [](const Span* s, int64_t t) { return s->start_ns < t; });
    for (; lo != v.end() && (*lo)->start_ns < to; ++lo) {
      total += std::min((*lo)->end_ns, to) - (*lo)->start_ns;
    }
    return total;
  };
  // The server's commit work for a request ends with the last env op its
  // thread starts after the handler returns and before the next handler
  // (or the reply) begins.
  for (auto& [rid, ev] : rids) {
    if (ev.h1 < 0) continue;
    int64_t limit = ev.reply >= 0 ? ev.reply : t1;
    const auto& hs = handler_by_tid[ev.server_tid];
    auto next = std::upper_bound(
        hs.begin(), hs.end(), ev.h0,
        [](int64_t t, const Span* s) { return t < s->start_ns; });
    if (next != hs.end()) limit = std::min(limit, (*next)->start_ns);
    ev.server_end = ev.h1;
    auto it = env_by_tid.find(ev.server_tid);
    if (it == env_by_tid.end()) continue;
    for (const Span* s : it->second) {
      if (s->start_ns >= ev.h1 && s->start_ns < limit) {
        ev.server_end = std::max(ev.server_end, s->end_ns);
      }
    }
  }

  // queue.* self time: the dispatcher's own time, without its env ops
  // and, for a long-poll Receive, without the wait for the server.
  std::vector<int64_t> queue_enq, queue_deq;
  std::vector<Interval> intervals;
  for (const Span& s : a.window) {
    int stage = -1;
    int64_t start = s.start_ns;
    switch (s.kind) {
      case SpanKind::kExecute:
        stage = kStageClient;
        break;
      case SpanKind::kCall:
        stage = kStageNet;
        break;
      case SpanKind::kHandle: {
        if (s.op != kOpEnqueue && s.op != kOpDequeue) break;
        stage = kStageQueue;
        if (s.blocking) {
          auto it = rids.find(s.rid);
          if (it == rids.end() || it->second.server_end < 0) break;
          start = std::max(start, it->second.server_end);
          if (start >= s.end_ns) break;
        }
        const int64_t self = s.end_ns - start - env_inside(s.tid, start, s.end_ns);
        (s.op == kOpEnqueue ? queue_enq : queue_deq).push_back(self);
        break;
      }
      case SpanKind::kHandler:
        stage = kStageStorage;
        break;
      case SpanKind::kSync:
      case SpanKind::kAppend:
        stage = s.owner == Owner::kDb    ? kStageEnvDb
                : s.owner == Owner::kTxn ? kStageEnvTxn
                                         : kStageEnvQm;
        break;
      default:
        break;
    }
    if (stage >= 0) intervals.push_back({start, s.end_ns, stage});
  }
  std::vector<int64_t> queue_wait, commit_reply;
  for (const auto& [rid, ev] : rids) {
    if (ev.send_ack >= 0 && ev.server_end >= 0) {
      intervals.push_back({ev.send_ack, ev.server_end, kStageServer});
    }
    if (ev.send_ack >= 0 && ev.h0 >= 0) queue_wait.push_back(ev.h0 - ev.send_ack);
    if (ev.h1 >= 0 && ev.reply >= 0) commit_reply.push_back(ev.reply - ev.h1);
  }
  const std::vector<int64_t> stages =
      Partition(intervals, t0, t1, /*in_client=*/executes > 0);

  // Sync busy fraction: the union of sync spans over the window.
  int64_t sync_busy = 0;
  {
    std::vector<Interval> syncs;
    for (const Span& s : a.window) {
      if (s.kind == SpanKind::kSync) syncs.push_back({s.start_ns, s.end_ns, 0});
    }
    sync_busy = Partition(syncs, t0, t1, /*in_client=*/false)[0];
  }

  const Snap& b = pass.before;
  const Snap& e = pass.after;
  const double units = static_cast<double>(std::max<uint64_t>(pass.units, 1));
  const double span_units =
      static_cast<double>(executes > 0 ? executes : pass.units);
  auto& m = a.metrics;

  Add(&m, "client.send_us", MeanUs(enq_calls), "us");
  Add(&m, "client.receive_wait_us", MeanUs(deq_calls), "us");
  Add(&m, "client.calls_per_req", Ratio(calls, span_units), "count");
  Add(&m, "client.resyncs", static_cast<double>(pass.resyncs), "count");
  Add(&m, "client.deadline_expiries", static_cast<double>(e.expiries - b.expiries),
      "count");
  Add(&m, "net.late_replies", static_cast<double>(e.late - b.late), "count");
  Add(&m, "net.rtt_us", MeanUs(nb_calls), "us");
  Add(&m, "net.handle_us.enqueue", MeanUs(handles_by_op[kOpEnqueue]), "us");
  Add(&m, "net.handle_us.dequeue", MeanUs(handles_by_op[kOpDequeue]), "us");
  Add(&m, "net.wire_self_us",
      nb_calls.empty() ? 0 : MeanUs(nb_calls) - MeanUs(nb_handles), "us");
  Add(&m, "net.loop_syscalls_per_op",
      Ratio(static_cast<double>((e.server_io - b.server_io) + (e.client_io - b.client_io)),
            static_cast<double>(e.served - b.served)),
      "count");
  Add(&m, "queue.enqueue_us", MeanUs(queue_enq), "us");
  Add(&m, "queue.dequeue_us", MeanUs(queue_deq), "us");
  Add(&m, "queue.request_depth_max", static_cast<double>(pass.depth_max), "count");
  Add(&m, "wal.qm.records_per_sync",
      Ratio(static_cast<double>(e.qm_sync_requests - b.qm_sync_requests),
            static_cast<double>(e.qm_syncs - b.qm_syncs)),
      "count");
  Add(&m, "wal.db.records_per_sync",
      Ratio(static_cast<double>(e.db_sync_requests - b.db_sync_requests),
            static_cast<double>(e.db_syncs - b.db_syncs)),
      "count");
  Add(&m, "wal.qm.bytes_per_req", static_cast<double>(e.qm_bytes - b.qm_bytes) / units,
      "B");
  uint64_t bytes = 0, syncs = 0;
  for (int o = 0; o < 4; ++o) {
    bytes += e.env_bytes[o] - b.env_bytes[o];
    syncs += e.env_syncs[o] - b.env_syncs[o];
  }
  Add(&m, "env.append_bytes_per_req", static_cast<double>(bytes) / units, "B");
  Add(&m, "env.syncs_per_req", static_cast<double>(syncs) / units, "count");
  for (Owner o : {Owner::kQm, Owner::kDb, Owner::kTxn}) {
    const int i = static_cast<int>(o);
    Add(&m, std::string("env.syncs_per_req.") + OwnerName(o),
        static_cast<double>(e.env_syncs[i] - b.env_syncs[i]) / units, "count");
  }
  Add(&m, "env.sync_us.p50", Percentile(sync_us, 50), "us");
  Add(&m, "env.sync_us.p99", Percentile(sync_us, 99), "us");
  Add(&m, "env.sync_busy_frac",
      Ratio(static_cast<double>(sync_busy), static_cast<double>(t1 - t0)), "ratio");
  Add(&m, "txn.commits_per_req", static_cast<double>(e.commits - b.commits) / units,
      "count");
  Add(&m, "txn.abort_ratio",
      Ratio(static_cast<double>(e.aborts - b.aborts),
            static_cast<double>((e.commits - b.commits) + (e.aborts - b.aborts))),
      "ratio");
  Add(&m, "server.abort_ratio",
      Ratio(static_cast<double>(e.server_aborts - b.server_aborts),
            static_cast<double>((e.processed - b.processed) +
                                (e.server_aborts - b.server_aborts))),
      "ratio");
  Add(&m, "storage.handler_us", MeanUs(handlers), "us");
  Add(&m, "server.queue_wait_us", MeanUs(queue_wait), "us");
  Add(&m, "server.commit_reply_us", MeanUs(commit_reply), "us");
  Add(&m, "recovery.qm_open_s", pass.qm_open_s, "s");
  Add(&m, "recovery.txn_open_s", pass.txn_open_s, "s");
  Add(&m, "recovery.db_open_s", pass.db_open_s, "s");
  Add(&m, "recovery.wal_bytes_read", static_cast<double>(pass.wal_bytes_read), "B");

  double stage_sum = 0;
  for (int s = 0; s < kStageCount; ++s) {
    const double per_unit = Micros(stages[static_cast<size_t>(s)]) / span_units;
    stage_sum += per_unit;
    Add(&m, kStageNames[s], per_unit, "us");
  }
  Add(&m, "bench.stage_gap_frac",
      Ratio(pass.e2e.mean_us - stage_sum, pass.e2e.mean_us), "ratio");
  Add(&m, "bench.gen_late_p99_us", untraced.gen_late_p99_us, "us");
  Add(&m, "bench.latency_p99_us", untraced.latency_p99_us, "us");
  Add(&m, "bench.trace_overhead",
      Ratio(pass.e2e.mean_us, untraced.latency_mean_us) - 1, "ratio");
  Add(&m, "bench.spans_dropped", static_cast<double>(pass.spans_dropped),
      "count");
  Add(&m, "traced.throughput_rps", pass.e2e.throughput, "1/s");
  Add(&m, "traced.latency_p50_us", pass.e2e.p50_us, "us");
  Add(&m, "traced.latency_mean_us", pass.e2e.mean_us, "us");
  return a;
}

std::string RidString(uint64_t rid) {
  if (rid == 0) return "-";
  return "pool-" + std::to_string((rid >> 32) - 1) + "#" +
         std::to_string(rid & 0xffffffffu);
}

const char* KindName(SpanKind k) {
  switch (k) {
    case SpanKind::kExecute:
      return "client.execute";
    case SpanKind::kCall:
      return "net.call";
    case SpanKind::kHandle:
      return "queue.handle";
    case SpanKind::kHandler:
      return "storage.handler";
    case SpanKind::kAppend:
      return "env.append";
    case SpanKind::kSync:
      return "env.sync";
    default:
      return "other";
  }
}

// Writes the first kSpansWritten spans of the window as TSV.
void WriteSpans(const RunConfig& cfg, const Analysis& a, int64_t t0) {
  if (cfg.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg.trace_dir, ec);
  const std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".tsv";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "span\tstart_us\tdur_us\trid\tthread\top\towner\tblocking\tbytes\n");
  const size_t n = std::min(a.window.size(), kSpansWritten);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = a.window[i];
    std::fprintf(f, "%s\t%.3f\t%.3f\t%s\t%u\t%u\t%s\t%d\t%u\n", KindName(s.kind),
                 Micros(s.start_ns - t0), Micros(Dur(s)), RidString(s.rid).c_str(),
                 s.tid, s.op, OwnerName(s.owner), s.blocking ? 1 : 0, s.bytes);
  }
  std::fclose(f);
  std::fprintf(stderr, "rrq_perfbench: wrote %zu spans to %s\n", n, path.c_str());
}

}  // namespace

Status RunTraced(const RunConfig& cfg, const E2E& untraced,
                 const std::string& history, Checker* check,
                 std::vector<Metric>* out) {
  Pass pass;
  if (cfg.workload == "queue_volatile") {
    RRQ_RETURN_IF_ERROR(TracedVolatile(cfg, check, &pass));
  } else if (cfg.workload == "crash_recovery") {
    RRQ_RETURN_IF_ERROR(TracedCrash(cfg, history, check, &pass));
  } else {
    RRQ_RETURN_IF_ERROR(TracedRequests(cfg, check, &pass));
  }
  Analysis a = Analyze(pass, untraced);
  WriteSpans(cfg, a, pass.t0);
  *out = std::move(a.metrics);
  return Status::OK();
}

}  // namespace perfbench
