// The four workloads' cores and their untraced passes. Every untraced
// figure comes from a real rrqd child; a traced run (--trace 1) makes
// the same untraced pass first and then the traced pass in layers.cc.

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>
#include <utility>

#include "harness.h"
#include "queue/envelope.h"

namespace perfbench {

using rrq::net::ChannelQueueApi;
using rrq::net::TcpChannel;

// ---- Helpers ---------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Windowed WindowStats(const std::vector<Sample>& samples, int64_t t0,
                     int64_t t1, double window_s) {
  const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>((t1 - t0) / std::max<int64_t>(window_ns, 1)));
  const int64_t span_ns = n == 1 ? std::max<int64_t>(t1 - t0, 1) : window_ns;
  std::vector<std::vector<double>> per(n);
  std::vector<int64_t> first(n, INT64_MAX), last(n, INT64_MIN);
  for (const Sample& s : samples) {
    if (s.end_ns < t0) continue;
    const size_t w = static_cast<size_t>((s.end_ns - t0) / span_ns);
    if (w >= n) continue;
    per[w].push_back(s.lat_us);
    first[w] = std::min(first[w], s.end_ns);
    last[w] = std::max(last[w], s.end_ns);
  }
  std::vector<double> p50, p90, p99, mean, tput;
  for (size_t w = 0; w < n; ++w) {
    p50.push_back(Percentile(per[w], 50));
    p90.push_back(Percentile(per[w], 90));
    p99.push_back(Percentile(per[w], 99));
    mean.push_back(Mean(per[w]));
    // Completions per second between the window's first and last one.
    tput.push_back(per[w].size() < 2 ? 0
                                     : static_cast<double>(per[w].size() - 1) /
                                           Seconds(last[w] - first[w]));
  }
  Windowed out;
  out.p50_us = Undisturbed(p50);
  out.p90_us = Undisturbed(p90);
  out.p99_us = Undisturbed(p99);
  out.mean_us = Median(mean);
  out.throughput = UndisturbedRate(tput);
  out.windows = n;
  return out;
}

std::string Payload(std::mt19937_64& rng, size_t n) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out(n, ' ');
  for (char& c : out) c = kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
  return out;
}

void Checker::Fail(const std::string& why) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_.empty()) first_ = why;
}

void Checker::CheckReply(const Result<std::string>& r, size_t slot,
                         uint64_t seq) {
  const std::string rid = Clerks::ClientId(slot) + "#" + std::to_string(seq);
  if (!r.ok()) {
    Fail(rid + ": " + r.status().ToString());
  } else if (*r != ExpectedReply(rid)) {
    Fail(rid + ": unexpected reply " + *r);
  } else {
    Ok();
  }
}

std::string Checker::first() {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

void Latch::Done() {
  if (n_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
}

void Latch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return n_.load() <= 0; });
}

Conns::Conns(int n, uint16_t port, Tracer* tracer) {
  for (int i = 0; i < n; ++i) {
    rrq::net::TcpChannelOptions options;
    options.port = port;
    tcp.push_back(std::make_unique<TcpChannel>(options));
    rrq::net::Channel* channel = tcp.back().get();
    if (tracer != nullptr) {
      traced.push_back(std::make_unique<TracingChannel>(channel, tracer));
      channel = traced.back().get();
    }
    api.push_back(std::make_unique<ChannelQueueApi>(channel));
  }
}

Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(
      from, to,
      std::filesystem::copy_options::recursive |
          std::filesystem::copy_options::overwrite_existing,
      ec);
  return ec ? Status::IOError("copy " + from + ": " + ec.message())
            : Status::OK();
}

namespace {

std::chrono::steady_clock::time_point AtNs(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

Status CreateQueues(ChannelQueueApi* api, const std::vector<std::string>& names,
                    bool durable) {
  rrq::queue::QueueOptions options;
  options.durable = durable;
  for (const std::string& q : names) {
    Status s = api->CreateQueue(q, options);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  return Status::OK();
}

std::string VolatileQueue(size_t conn, int chain) {
  return "vol." + std::to_string(conn) + "." + std::to_string(chain);
}

// crash_recovery's backlog rids and the audit queue their replies go to.
std::string BacklogRid(size_t conn, int i) {
  return "backlog-" + std::to_string(conn) + "#" + std::to_string(i + 1);
}
std::string AuditQueue(size_t conn) {
  return "reply.audit." + std::to_string(conn);
}

// One enqueue→dequeue chain on its own queue; each completion issues the
// chain's next call from the channel's demux thread.
class PairChain {
 public:
  PairChain(ChannelQueueApi* api, std::string queue, std::string payload,
            Tracer* tracer)
      : api_(api), queue_(std::move(queue)), payload_(std::move(payload)),
        tracer_(tracer) {}

  void Start(uint64_t pairs, int64_t deadline_ns, Checker* check,
             Latch* latch) {
    remaining_ = pairs;
    deadline_ns_ = deadline_ns;
    check_ = check;
    latch_ = latch;
    Next();
  }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  void Next() {
    start_ns_ = NowNs();
    if (!samples_.empty()) {
      late_us_.push_back(Micros(start_ns_ - samples_.back().end_ns));
    }
    if (remaining_ == 0 || start_ns_ >= deadline_ns_) {
      latch_->Done();
      return;
    }
    --remaining_;
    expected_ = payload_ + ":" + std::to_string(samples_.size());
    api_->EnqueueAsync(
        queue_, expected_, 0, "", "", /*one_way=*/false,
        [this](Result<rrq::queue::ElementId> eid) {
          if (!eid.ok()) {
            check_->Fail(queue_ + " enqueue: " + eid.status().ToString());
            latch_->Done();
            return;
          }
          // Timeout 0: the enqueue's reply already confirmed the commit.
          api_->DequeueAsync(
              queue_, "", "", 0, [this](Result<rrq::queue::Element> e) {
                const int64_t end = NowNs();
                if (!e.ok()) {
                  check_->Fail(queue_ + " dequeue: " + e.status().ToString());
                  latch_->Done();
                  return;
                }
                if (e->contents != expected_) {
                  check_->Fail(queue_ + ": dequeued the wrong element");
                } else {
                  check_->Ok();
                }
                if (tracer_ != nullptr) {
                  Span span;
                  span.kind = SpanKind::kExecute;
                  span.start_ns = start_ns_;
                  span.end_ns = end;
                  tracer_->Record(span);
                }
                samples_.push_back({end, Micros(end - start_ns_)});
                Next();
              });
        });
  }

  ChannelQueueApi* api_;
  std::string queue_;
  std::string payload_;
  Tracer* tracer_;
  uint64_t remaining_ = 0;
  int64_t deadline_ns_ = 0;
  Checker* check_ = nullptr;
  Latch* latch_ = nullptr;
  int64_t start_ns_ = 0;
  std::string expected_;
  std::vector<Sample> samples_;
  std::vector<double> late_us_;
};

// Runs `per_slot` Fig 2 requests on each of the pool's first `slots`
// slots, one thread per slot, checking every reply.
void ClosedLoopOnSlots(Clerks* clerks, int slots, int per_slot,
                       uint64_t seed, Checker* check) {
  std::vector<std::thread> threads;
  for (int i = 0; i < slots; ++i) {
    threads.emplace_back([=]() {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 100 + i);
      for (int k = 1; k <= per_slot; ++k) {
        check->CheckReply(
            clerks->Execute(static_cast<size_t>(i), Payload(rng, kBodyBytes)),
            static_cast<size_t>(i), static_cast<uint64_t>(k));
      }
    });
  }
  for (auto& t : threads) t.join();
}

Status EnqueueBacklog(Conns* conns, uint64_t seed, Checker* check) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 13);
  const size_t n = conns->api.size();
  const int per_conn = kBacklog / static_cast<int>(n);
  std::vector<std::vector<std::string>> wire(n);
  for (size_t c = 0; c < n; ++c) {
    for (int i = 0; i < per_conn; ++i) {
      rrq::queue::RequestEnvelope envelope;
      envelope.rid = BacklogRid(c, i);
      envelope.reply_queue = AuditQueue(c);
      envelope.body = Payload(rng, kBodyBytes);
      wire[c].push_back(rrq::queue::EncodeRequestEnvelope(envelope));
    }
  }
  // A window of in-flight enqueues per connection.
  constexpr int kWindow = 16;
  Latch latch(static_cast<int64_t>(n) * kWindow);
  std::vector<std::atomic<int>> next(n);
  std::atomic<bool> failed{false};
  std::function<void(size_t)> issue = [&](size_t c) {
    const int i = next[c].fetch_add(1);
    if (i >= per_conn) {
      latch.Done();
      return;
    }
    conns->api[c]->EnqueueAsync(
        kRequestQueue, wire[c][static_cast<size_t>(i)], 0, "", "", false,
        [&, c](Result<rrq::queue::ElementId> eid) {
          if (!eid.ok()) {
            failed.store(true);
            check->Fail("backlog enqueue: " + eid.status().ToString());
          }
          issue(c);
        });
  };
  for (size_t c = 0; c < n; ++c) {
    for (int w = 0; w < kWindow; ++w) issue(c);
  }
  latch.Wait();
  return failed.load() ? Status::IOError("backlog enqueue failed")
                       : Status::OK();
}

}  // namespace

// ---- Workload cores ----------------------------------------------------------

LoopStats SerialLoop(Clerks* clerks, uint64_t* seq, std::mt19937_64& rng,
                     int requests, double max_seconds, Checker* check) {
  LoopStats out;
  out.t0 = NowNs();
  const int64_t deadline = out.t0 + static_cast<int64_t>(max_seconds * 1e9);
  int64_t prev_end = out.t0;
  for (int i = 0; i < requests && prev_end < deadline; ++i) {
    const std::string body = Payload(rng, kBodyBytes);
    const int64_t start = NowNs();
    out.late_us.push_back(Micros(start - prev_end));
    Result<std::string> r = clerks->Execute(0, body);
    const int64_t end = NowNs();
    check->CheckReply(r, 0, ++*seq);
    out.samples.push_back({end, Micros(end - start)});
    prev_end = end;
  }
  out.t1 = NowNs();
  return out;
}

LoadStats Staircase(Clerks* clerks, uint64_t seed, double seconds,
                    Checker* check) {
  // Step 0 is the reference step; the staircase follows.
  std::vector<double> rates = {kReferenceRate};
  rates.insert(rates.end(), std::begin(kStaircase), std::end(kStaircase));
  const size_t steps = rates.size();
  const int64_t total_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> bounds = {
      0, static_cast<int64_t>(static_cast<double>(total_ns) * kReferenceShare)};
  for (size_t s = 1; s < steps; ++s) {
    bounds.push_back(bounds[1] + (total_ns - bounds[1]) *
                                     static_cast<int64_t>(s) /
                                     static_cast<int64_t>(steps - 1));
  }

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  struct Arrival {
    int64_t offset_ns;
    size_t step;
  };
  std::vector<Arrival> arrivals;
  for (size_t s = 0; s < steps; ++s) {
    std::exponential_distribution<double> gap(rates[s] / 1e9);
    for (double t = static_cast<double>(bounds[s]) + gap(rng);
         t < static_cast<double>(bounds[s + 1]); t += gap(rng)) {
      arrivals.push_back({static_cast<int64_t>(t), s});
    }
  }
  std::vector<std::string> bodies;
  for (int i = 0; i < 256; ++i) bodies.push_back(Payload(rng, kBodyBytes));

  const size_t n = arrivals.size();
  std::vector<int64_t> done_ns(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;
  bool closed = false;
  std::atomic<int64_t> completed{0};

  LoadStats out;
  out.t0 = NowNs() + 20'000'000;  // slack for the workers to start
  std::vector<std::thread> workers;
  for (int i = 0; i < kLoadClerks; ++i) {
    workers.emplace_back([&, i]() {
      const size_t slot = static_cast<size_t>(i);
      uint64_t seq = 0;
      for (;;) {
        size_t idx;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !ready.empty(); });
          if (ready.empty()) return;
          idx = ready.front();
          ready.pop_front();
        }
        Result<std::string> r = clerks->Execute(slot, bodies[idx % 256]);
        done_ns[idx] = NowNs();
        check->CheckReply(r, slot, ++seq);
        completed.fetch_add(1);
      }
    });
  }

  // The generator: sleeps to each due time, hands the arrival to a free
  // clerk, and samples the backlog (due − completed) at step boundaries.
  std::vector<int64_t> backlog(steps + 1, 0);
  size_t next_bound = 1;
  int64_t pushed = 0;
  auto sample_bounds_before = [&](int64_t t) {
    while (next_bound <= steps && t >= out.t0 + bounds[next_bound]) {
      std::this_thread::sleep_until(AtNs(out.t0 + bounds[next_bound]));
      backlog[next_bound++] = pushed - completed.load();
    }
  };
  for (size_t idx = 0; idx < n; ++idx) {
    const int64_t due = out.t0 + arrivals[idx].offset_ns;
    sample_bounds_before(due);
    std::this_thread::sleep_until(AtNs(due));
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(idx);
    }
    cv.notify_one();
    ++pushed;
    out.late_us.push_back(Micros(NowNs() - due));
  }
  sample_bounds_before(INT64_MAX);
  out.t1 = out.t0 + total_ns;
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& w : workers) w.join();

  std::vector<std::vector<double>> step_lat(steps);
  std::vector<Sample> reference;
  uint64_t in_time = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    const int64_t due = out.t0 + arrivals[idx].offset_ns;
    const double lat = Micros(done_ns[idx] - due);
    step_lat[arrivals[idx].step].push_back(lat);
    // Reference windows are keyed by due time, so a stall's victims stay
    // in the window that caused them.
    if (arrivals[idx].step == 0) reference.push_back({due, lat});
    if (done_ns[idx] <= out.t1) ++in_time;
  }
  out.reference = WindowStats(reference, out.t0, out.t0 + bounds[1],
                              kReferenceWindowSeconds);
  bool all_pass = true;
  for (size_t s = 0; s < steps; ++s) {
    StepStats st;
    st.rate = rates[s];
    st.arrivals = step_lat[s].size();
    st.p50_us = Percentile(step_lat[s], 50);
    st.p99_us = Percentile(step_lat[s], 99);
    st.backlog_start = backlog[s];
    st.backlog_end = backlog[s + 1];
    const int64_t slack = std::max<int64_t>(
        kBacklogSlack, static_cast<int64_t>(kBacklogSlackShare *
                                            static_cast<double>(st.arrivals)));
    st.pass = st.p99_us <= kLatencyLimitUs &&
              st.backlog_end - st.backlog_start <= slack;
    all_pass = all_pass && st.pass;
    if (all_pass) out.slo_rps = st.rate;
    out.steps.push_back(st);
  }
  out.completed = n;
  out.throughput_rps = static_cast<double>(in_time) / Seconds(total_ns);
  return out;
}

Status CreateVolatileQueues(Conns* conns) {
  for (size_t c = 0; c < conns->api.size(); ++c) {
    std::vector<std::string> names;
    for (int k = 0; k < kVolChains; ++k) names.push_back(VolatileQueue(c, k));
    RRQ_RETURN_IF_ERROR(
        CreateQueues(conns->api[c].get(), names, /*durable=*/false));
  }
  return Status::OK();
}

PairStats RunPairs(Conns* conns, uint64_t pairs_per_chain, double seconds,
                   uint64_t seed, Checker* check, Tracer* tracer) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<std::unique_ptr<PairChain>> chains;
  for (size_t c = 0; c < conns->api.size(); ++c) {
    for (int k = 0; k < kVolChains; ++k) {
      chains.push_back(std::make_unique<PairChain>(
          conns->api[c].get(), VolatileQueue(c, k),
          Payload(rng, kVolPayloadBytes), tracer));
    }
  }
  PairStats out;
  Latch latch(static_cast<int64_t>(chains.size()));
  out.t0 = NowNs();
  const int64_t deadline =
      seconds > 0 ? out.t0 + static_cast<int64_t>(seconds * 1e9) : INT64_MAX;
  for (auto& chain : chains) {
    chain->Start(pairs_per_chain, deadline, check, &latch);
  }
  latch.Wait();
  out.t1 = NowNs();
  for (auto& chain : chains) {
    out.samples.insert(out.samples.end(), chain->samples().begin(),
                       chain->samples().end());
    out.late_us.insert(out.late_us.end(), chain->late_us().begin(),
                       chain->late_us().end());
  }
  out.pairs = out.samples.size();
  return out;
}

DrainStats DrainAndAudit(Conns* conns, int64_t t_spawn, Checker* check) {
  const size_t n = conns->api.size();
  const int per_conn = kBacklog / static_cast<int>(n);
  struct QueueAudit {
    std::mutex mu;
    std::set<std::string> seen;
    std::atomic<int> to_claim{0};
  };
  std::vector<QueueAudit> audits(n);
  for (auto& a : audits) a.to_claim.store(per_conn);
  DrainStats out;
  std::mutex out_mu;
  const int64_t give_up = NowNs() + 60'000'000'000;
  Latch latch(static_cast<int64_t>(n) * kDrainChainsPerQueue);
  // claim: take one of the queue's outstanding replies before waiting
  // for it, so exactly per_conn dequeues succeed per queue.
  std::function<void(size_t, bool, int64_t)> issue = [&](size_t c, bool claim,
                                                        int64_t prev_end) {
    QueueAudit* audit = &audits[c];
    if (claim && audit->to_claim.fetch_sub(1) <= 0) {
      latch.Done();
      return;
    }
    if (NowNs() > give_up) {
      check->Fail(AuditQueue(c) + ": backlog not drained");
      latch.Done();
      return;
    }
    if (prev_end > 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      out.late_us.push_back(Micros(NowNs() - prev_end));
    }
    conns->api[c]->DequeueAsync(
        AuditQueue(c), "", "", /*timeout_micros=*/1'000'000,
        [&, c, audit](Result<rrq::queue::Element> e) {
          const int64_t now = NowNs();
          if (!e.ok()) {
            if (e.status().IsTimedOut() || e.status().IsNotFound()) {
              issue(c, /*claim=*/false, now);  // nothing yet: same claim
              return;
            }
            check->Fail("audit dequeue: " + e.status().ToString());
            latch.Done();
            return;
          }
          rrq::queue::ReplyEnvelope reply;
          std::string why;
          if (!rrq::queue::DecodeReplyEnvelope(e->contents, &reply).ok()) {
            why = "undecodable reply";
          } else if (reply.rid.rfind("backlog-" + std::to_string(c) + "#",
                                     0) != 0) {
            why = "reply for a foreign rid " + reply.rid;
          } else if (!reply.success ||
                     reply.body != ExpectedReply(reply.rid)) {
            why = reply.rid + ": unexpected reply " + reply.body;
          } else {
            std::lock_guard<std::mutex> lock(audit->mu);
            if (!audit->seen.insert(reply.rid).second) {
              why = reply.rid + ": answered twice";
            }
          }
          if (why.empty()) {
            check->Ok();
          } else {
            check->Fail(why);
          }
          {
            std::lock_guard<std::mutex> lock(out_mu);
            out.lat_us.push_back(Micros(now - t_spawn));
            out.last_reply_ns = std::max(out.last_reply_ns, now);
            ++out.replies;
          }
          issue(c, /*claim=*/true, now);
        });
  };
  for (size_t c = 0; c < n; ++c) {
    for (int k = 0; k < kDrainChainsPerQueue; ++k) issue(c, /*claim=*/true, 0);
  }
  latch.Wait();
  // Exactly once: nothing may be left — no request still queued, and no
  // second reply behind the ones just audited.
  auto depth = conns->api[0]->Depth(kRequestQueue);
  if (!depth.ok() || *depth != 0) check->Fail("request queue not empty");
  for (size_t c = 0; c < n; ++c) {
    auto d = conns->api[0]->Depth(AuditQueue(c));
    if (!d.ok() || *d != 0) check->Fail(AuditQueue(c) + ": extra replies");
  }
  return out;
}

// ---- Set-up ------------------------------------------------------------------

Status StartOneClerk(Rig* rig) {
  rig->clerks = MakePoolClerks(rig->daemon->port(), 1);
  return rig->clerks->Start();
}

Status StartLoadPool(Rig* rig) {
  rig->clerks = MakePoolClerks(rig->daemon->port(), kLoadClerks);
  return rig->clerks->Start();
}

Status StartVolatileConns(Rig* rig) {
  rig->conns = std::make_unique<Conns>(kVolConns, rig->daemon->port(), nullptr);
  return CreateVolatileQueues(rig->conns.get());
}

Status SetUpRig(const RunConfig& cfg, ClientSetUp client, Rig* out,
                double* setup_s) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Rig rig;
    rig.dir = std::make_unique<StateDir>(cfg.state_root, cfg.workload);
    if (!rig.dir->ok()) {
      return Status::IOError("mkdtemp under " + cfg.state_root);
    }
    rig.daemon = std::make_unique<Daemon>(cfg.rrqd, rig.dir->path());
    const int64_t t0 = NowNs();
    RRQ_RETURN_IF_ERROR(rig.daemon->Start({}, nullptr));
    RRQ_RETURN_IF_ERROR(client(&rig));
    times.push_back(Seconds(NowNs() - t0));
    if (i + 1 == kSetupRepeats) {
      *out = std::move(rig);
    } else if (rig.clerks != nullptr) {
      (void)rig.clerks->Stop();
    }
  }
  *setup_s = Undisturbed(times);
  return Status::OK();
}

Status BuildCrashHistory(const RunConfig& cfg, Rig* rig, Checker* check) {
  ClosedLoopOnSlots(rig->clerks.get(), kLoadClerks,
                    kHistoryRequests / kLoadClerks, cfg.seed, check);
  rig->clerks.reset();
  rig->daemon->Kill();
  RRQ_RETURN_IF_ERROR(rig->daemon->Start({"--no-server"}, nullptr));
  {
    Conns conns(kBacklogConns, rig->daemon->port(), nullptr);
    std::vector<std::string> audit;
    for (size_t c = 0; c < kBacklogConns; ++c) audit.push_back(AuditQueue(c));
    RRQ_RETURN_IF_ERROR(CreateQueues(conns.api[0].get(), audit, true));
    RRQ_RETURN_IF_ERROR(EnqueueBacklog(&conns, cfg.seed, check));
  }
  rig->daemon->Kill();
  return Status::OK();
}

// ---- Untraced passes ---------------------------------------------------------

namespace {

// SIGKILLs the daemon, then restarts rrqd kRecoverRepeats times, each on
// a fresh copy of the state it left; the Undisturbed() spawn →
// "listening" time. Copies keep every restart on the same history (a
// restart itself appends to the state it recovers). The restarts run
// back to back: after an idle gap each one also paid the host's wake-up
// from idle, which doubled a small restart and drifted between runs.
Status MeasureRecovery(const RunConfig& cfg, Daemon* daemon,
                       double* recover_s) {
  daemon->Kill();
  std::vector<double> times;
  for (int i = 0; i < kRecoverRepeats; ++i) {
    StateDir copy(cfg.state_root, cfg.workload + "-restart");
    if (!copy.ok()) return Status::IOError("mkdtemp under " + cfg.state_root);
    RRQ_RETURN_IF_ERROR(CopyTree(daemon->dir(), copy.path()));
    Daemon restarted(cfg.rrqd, copy.path());
    double t = 0;
    RRQ_RETURN_IF_ERROR(restarted.Start({}, &t));
    times.push_back(t);
  }
  std::fprintf(stderr, "%s: restarts (s):", cfg.workload.c_str());
  for (double t : times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  *recover_s = Undisturbed(times);
  return Status::OK();
}

double DiskPerUnit(const std::string& dir, uint64_t units) {
  return static_cast<double>(TreeBytes(dir)) /
         static_cast<double>(std::max<uint64_t>(units, 1));
}

Status UntracedSerial(const RunConfig& cfg, Checker* check, E2E* e) {
  Rig rig;
  RRQ_RETURN_IF_ERROR(SetUpRig(cfg, StartOneClerk, &rig, &e->setup_s));
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 3);
  uint64_t seq = 0;
  SerialLoop(rig.clerks.get(), &seq, rng, kWarmupRequests, cfg.seconds, check);
  LoopStats loop =
      SerialLoop(rig.clerks.get(), &seq, rng, SerialRequests(cfg),
                 kSerialTimeCap * cfg.seconds, check);
  const Windowed w =
      WindowStats(loop.samples, loop.t0, loop.t1, kWindowSeconds);
  e->throughput_rps = w.throughput;
  e->latency_p50_us = w.p50_us;
  e->latency_p90_us = w.p90_us;
  e->latency_p99_us = w.p99_us;
  e->latency_mean_us = w.mean_us;
  e->gen_late_p99_us = Percentile(loop.late_us, 99);
  e->drain_rps = e->throughput_rps;
  e->daemon_rss_mb = ReadVmHwmMb(rig.daemon->pid());
  (void)rig.clerks->Stop();
  rig.clerks.reset();
  e->disk_bytes_per_req = DiskPerUnit(rig.dir->path(), seq);
  return MeasureRecovery(cfg, rig.daemon.get(), &e->recover_s);
}

Status UntracedLoad(const RunConfig& cfg, Checker* check, E2E* e) {
  Rig rig;
  RRQ_RETURN_IF_ERROR(SetUpRig(cfg, StartLoadPool, &rig, &e->setup_s));
  LoadStats load = Staircase(rig.clerks.get(), cfg.seed, cfg.seconds, check);
  e->throughput_rps = load.throughput_rps;
  e->latency_p50_us = load.reference.p50_us;
  e->latency_p90_us = load.reference.p90_us;
  e->latency_p99_us = load.reference.p99_us;
  e->latency_mean_us = load.reference.mean_us;
  e->slo_rps = load.slo_rps;
  e->drain_rps = load.throughput_rps;
  e->gen_late_p99_us = Percentile(load.late_us, 99);
  e->daemon_rss_mb = ReadVmHwmMb(rig.daemon->pid());
  for (const StepStats& st : load.steps) {
    std::fprintf(stderr,
                 "request_load step %.0f req/s: n=%llu p50=%.0fus p99=%.0fus "
                 "backlog %lld->%lld %s\n",
                 st.rate, static_cast<unsigned long long>(st.arrivals),
                 st.p50_us, st.p99_us, static_cast<long long>(st.backlog_start),
                 static_cast<long long>(st.backlog_end),
                 st.pass ? "pass" : "FAIL");
  }
  (void)rig.clerks->Stop();
  rig.clerks.reset();
  e->disk_bytes_per_req = DiskPerUnit(rig.dir->path(), load.completed);
  return MeasureRecovery(cfg, rig.daemon.get(), &e->recover_s);
}

Status UntracedVolatile(const RunConfig& cfg, Checker* check, E2E* e) {
  Rig rig;
  RRQ_RETURN_IF_ERROR(SetUpRig(cfg, StartVolatileConns, &rig, &e->setup_s));
  // Warm-up: fill caches and lazy state before the clock starts.
  RunPairs(rig.conns.get(), 50, 0, cfg.seed, check, nullptr);
  {
    // Scoped so that the samples are freed before the restarts: rrqd is
    // forked from this process, and a fork's cost grows with the memory
    // the process holds.
    PairStats pairs =
        RunPairs(rig.conns.get(), VolatilePairsPerChain(cfg),
                 kVolTimeCap * cfg.seconds, cfg.seed, check, nullptr);
    const Windowed w =
        WindowStats(pairs.samples, pairs.t0, pairs.t1, kWindowSeconds);
    e->throughput_rps = w.throughput;
    e->latency_p50_us = w.p50_us;
    e->latency_p90_us = w.p90_us;
    e->latency_p99_us = w.p99_us;
    e->latency_mean_us = w.mean_us;
    e->gen_late_p99_us = Percentile(pairs.late_us, 99);
    e->drain_rps = e->throughput_rps;
    e->daemon_rss_mb = ReadVmHwmMb(rig.daemon->pid());
    rig.conns.reset();
    e->disk_bytes_per_req = DiskPerUnit(rig.dir->path(), pairs.pairs);
  }
  return MeasureRecovery(cfg, rig.daemon.get(), &e->recover_s);
}

// One crash_recovery cycle: restart a copy of the killed history with
// the server on, drain and audit the backlog.
struct CycleStats {
  double recover_s = 0;
  double drain_rps = 0;
  double rss_mb = 0;
  double disk_bytes_per_req = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double late_p99_us = 0;
};

Status CrashCycle(const RunConfig& cfg, const std::string& history,
                  Checker* check, CycleStats* out) {
  StateDir dir(cfg.state_root, cfg.workload);
  if (!dir.ok()) return Status::IOError("mkdtemp under " + cfg.state_root);
  RRQ_RETURN_IF_ERROR(CopyTree(history, dir.path()));
  Daemon daemon(cfg.rrqd, dir.path());
  const int64_t t_spawn = NowNs();
  RRQ_RETURN_IF_ERROR(daemon.Start({}, &out->recover_s));
  const int64_t t_listen = NowNs();
  DrainStats drain;
  {
    Conns conns(kBacklogConns, daemon.port(), nullptr);
    drain = DrainAndAudit(&conns, t_spawn, check);
  }
  out->drain_rps = drain.replies / Seconds(drain.last_reply_ns - t_listen);
  out->p50_us = Percentile(drain.lat_us, 50);
  out->p90_us = Percentile(drain.lat_us, 90);
  out->p99_us = Percentile(drain.lat_us, 99);
  out->mean_us = Mean(drain.lat_us);
  out->late_p99_us = Percentile(drain.late_us, 99);
  out->rss_mb = ReadVmHwmMb(daemon.pid());
  daemon.Kill();
  out->disk_bytes_per_req =
      DiskPerUnit(dir.path(), kHistoryRequests + kBacklog);
  return Status::OK();
}

Status UntracedCrash(const RunConfig& cfg, Rig* rig, Checker* check, E2E* e) {
  RRQ_RETURN_IF_ERROR(SetUpRig(cfg, StartLoadPool, rig, &e->setup_s));
  RRQ_RETURN_IF_ERROR(BuildCrashHistory(cfg, rig, check));
  std::vector<double> recover, drain, rss, disk, p50, p90, p99, mean, late;
  const int64_t deadline = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  do {
    CycleStats c;
    RRQ_RETURN_IF_ERROR(CrashCycle(cfg, rig->dir->path(), check, &c));
    recover.push_back(c.recover_s);
    drain.push_back(c.drain_rps);
    rss.push_back(c.rss_mb);
    disk.push_back(c.disk_bytes_per_req);
    p50.push_back(c.p50_us);
    p90.push_back(c.p90_us);
    p99.push_back(c.p99_us);
    mean.push_back(c.mean_us);
    late.push_back(c.late_p99_us);
  } while (NowNs() < deadline);
  e->recover_s = Undisturbed(recover);
  e->drain_rps = UndisturbedRate(drain);
  e->throughput_rps = e->drain_rps;
  e->latency_p50_us = Undisturbed(p50);
  e->latency_p90_us = Undisturbed(p90);
  e->latency_p99_us = Undisturbed(p99);
  e->latency_mean_us = Median(mean);
  e->daemon_rss_mb = Median(rss);
  e->disk_bytes_per_req = Median(disk);
  e->gen_late_p99_us = Median(late);
  std::fprintf(stderr, "crash_recovery: %zu restart cycles\n", recover.size());
  return Status::OK();
}

// The end-to-end metrics BENCHMARK.json lists, plus slo_rps on
// request_load (the one workload it means something on; see README.md).
std::vector<Metric> EndToEndMetrics(const RunConfig& cfg, const E2E& e,
                                    const Checker& check) {
  const double ok_frac =
      check.attempted() == 0
          ? 0
          : 1.0 - static_cast<double>(check.failed()) /
                      static_cast<double>(check.attempted());
  std::vector<Metric> out = {
      {"setup_s", e.setup_s, "s"},
      {"throughput_rps", e.throughput_rps, "1/s"},
      {"latency_p50_us", e.latency_p50_us, "us"},
      {"latency_p90_us", e.latency_p90_us, "us"},
      {"recover_s", e.recover_s, "s"},
      {"drain_rps", e.drain_rps, "1/s"},
      {"ok_frac", ok_frac, "ratio"},
      {"daemon_rss_mb", e.daemon_rss_mb, "MiB"},
      {"disk_bytes_per_req", e.disk_bytes_per_req, "B"},
  };
  if (cfg.workload == "request_load") out.push_back({"slo_rps", e.slo_rps, "1/s"});
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "request_serial", "request_load", "queue_volatile", "crash_recovery"};
  return kNames;
}

RunOutcome RunWorkload(const RunConfig& cfg) {
  RunOutcome outcome;
  Checker check;
  E2E e;
  Rig crash_rig;  // crash_recovery's killed history, reused when traced
  Status s;
  if (cfg.workload == "request_serial") {
    s = UntracedSerial(cfg, &check, &e);
  } else if (cfg.workload == "request_load") {
    s = UntracedLoad(cfg, &check, &e);
  } else if (cfg.workload == "queue_volatile") {
    s = UntracedVolatile(cfg, &check, &e);
  } else {
    s = UntracedCrash(cfg, &crash_rig, &check, &e);
  }
  if (s.ok() && cfg.trace) {
    const std::string history =
        crash_rig.dir != nullptr ? crash_rig.dir->path() : "";
    s = RunTraced(cfg, e, history, &check, &outcome.metrics);
  }
  if (!s.ok()) {
    outcome.error = s.ToString();
    return outcome;
  }
  outcome.ran = true;
  outcome.attempted = check.attempted();
  outcome.failed = check.failed();
  if (outcome.failed > 0) outcome.error = check.first();
  if (!cfg.trace) outcome.metrics = EndToEndMetrics(cfg, e, check);
  return outcome;
}

}  // namespace perfbench
