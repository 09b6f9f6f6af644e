#include "stack.h"

#include <signal.h>
#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>

#include "client/clerk_pool.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using rrq::queue::QueueRepository;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StateDir::StateDir(const std::string& root, const std::string& tag) {
  std::string tmpl = root + "/" + tag + "-XXXXXX";
  if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

StateDir::~StateDir() {
  if (!path_.empty()) RemoveTree(path_);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

uint64_t TreeBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

double ReadVmHwmMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(std::string binary, std::string dir)
    : binary_(std::move(binary)), dir_(std::move(dir)) {}

Daemon::~Daemon() { Kill(); }

Status Daemon::Start(const std::vector<std::string>& extra,
                     double* startup_s) {
  std::vector<std::string> argv = {binary_, "--dir", dir_, "--port", "0"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const int64_t t0 = NowNs();
  if (Status s = child_.Spawn(argv); !s.ok()) return s;
  auto line = child_.WaitForLine("rrqd: listening on", 30'000'000);
  if (!line.ok()) {
    Kill();
    return line.status();
  }
  if (startup_s != nullptr) *startup_s = (NowNs() - t0) / 1e9;
  // "rrqd: listening on <host>:<port> (pid <pid>)"
  const size_t colon = line->rfind(':');
  port_ = colon == std::string::npos
              ? 0
              : static_cast<uint16_t>(
                    std::strtoul(line->c_str() + colon + 1, nullptr, 10));
  if (port_ == 0) {
    Kill();
    return Status::Corruption("unparsable listening line: " + *line);
  }
  return Status::OK();
}

void Daemon::Kill() {
  if (!child_.Running()) return;
  (void)child_.Signal(SIGKILL);
  (void)child_.Wait();
}

// ---------------------------------------------------------------------------
// HostedRrqd

HostedRrqd::HostedRrqd(std::string dir, Tracer* tracer)
    : dir_(std::move(dir)),
      tracer_(tracer),
      env_(std::make_unique<TracingEnv>(rrq::env::Env::Default(), tracer)) {}

HostedRrqd::~HostedRrqd() { Stop(); }

Status HostedRrqd::Start(bool run_server) {
  for (const char* sub : {"", "/txn", "/qm", "/db"}) {
    if (Status s = env_->CreateDirIfMissing(dir_ + sub); !s.ok()) return s;
  }
  rrq::txn::TxnManagerOptions txn_options;
  txn_options.env = env_.get();
  txn_options.dir = dir_ + "/txn";
  txn_ = std::make_unique<rrq::txn::TransactionManager>(txn_options);
  int64_t t0 = NowNs();
  if (Status s = txn_->Open(); !s.ok()) return s;
  txn_open_s = (NowNs() - t0) / 1e9;

  rrq::queue::RepositoryOptions repo_options;
  repo_options.env = env_.get();
  repo_options.dir = dir_ + "/qm";
  repo_options.shards = 0;
  rrq::txn::TransactionManager* txn = txn_.get();
  repo_options.in_doubt_resolver = [txn](rrq::txn::TxnId id) {
    return txn->WasCommitted(id);
  };
  repo_ = std::make_unique<QueueRepository>("qm", repo_options);
  t0 = NowNs();
  if (Status s = repo_->Open(); !s.ok()) return s;
  qm_open_s = (NowNs() - t0) / 1e9;
  if (Status s = repo_->CreateQueue(kRequestQueue);
      !s.ok() && !s.IsAlreadyExists()) {
    return s;
  }

  rrq::storage::KvStoreOptions db_options;
  db_options.env = env_.get();
  db_options.dir = dir_ + "/db";
  db_options.in_doubt_resolver = [txn](rrq::txn::TxnId id) {
    return txn->WasCommitted(id);
  };
  db_ = std::make_unique<rrq::storage::KvStore>("db", db_options);
  t0 = NowNs();
  if (Status s = db_->Open(); !s.ok()) return s;
  db_open_s = (NowNs() - t0) / 1e9;

  if (run_server) {
    rrq::server::ServerOptions server_options;
    server_options.name = "rrqd-server";
    server_options.request_queue = kRequestQueue;
    server_options.threads = 1;
    rrq::storage::KvStore* db = db_.get();
    Tracer* tracer = tracer_;
    // rrqd's demo handler: count executions per rid in the KvStore,
    // transactionally with the dequeue and the reply.
    server_ = std::make_unique<rrq::server::Server>(
        server_options, repo_.get(), txn_.get(),
        [db, tracer](rrq::txn::Transaction* t,
                     const rrq::queue::RequestEnvelope& request)
            -> Result<std::string> {
          Span span;
          span.kind = SpanKind::kHandler;
          span.rid = RidId(request.rid);
          span.start_ns = NowNs();
          Result<std::string> out = [&]() -> Result<std::string> {
            const std::string key = "exec/" + request.rid;
            uint64_t count = 0;
            auto prior = db->GetForUpdate(t, key);
            if (prior.ok()) {
              count = std::strtoull(prior->c_str(), nullptr, 10);
            } else if (!prior.status().IsNotFound()) {
              return prior.status();
            }
            ++count;
            RRQ_RETURN_IF_ERROR(db->Put(t, key, std::to_string(count)));
            return "done:" + request.rid + ":" + std::to_string(count);
          }();
          span.end_ns = NowNs();
          tracer->Record(span);
          return out;
        });
    if (Status s = server_->Start(); !s.ok()) return s;
  }

  dispatcher_ =
      std::make_unique<rrq::net::QueueServiceDispatcher>(repo_.get());
  rrq::net::TcpServerOptions tcp_options;
  tcp_options.bind_address = "127.0.0.1";
  tcp_options.port = 0;
  tcp_options.workers = 0;
  rrq::net::QueueServiceDispatcher* dispatcher = dispatcher_.get();
  Tracer* tracer = tracer_;
  tcp_ = std::make_unique<rrq::net::TcpServer>(
      tcp_options,
      [dispatcher, tracer](const Slice& request, std::string* reply) {
        Span span = HandleSpan(request);
        span.start_ns = NowNs();
        Status s = dispatcher->Handle(request, reply);
        span.end_ns = NowNs();
        tracer->Record(span);
        return s;
      });
  tcp_->set_blocking_hint([](const Slice& request) {
    return rrq::net::QueueRequestMayBlock(request);
  });
  return tcp_->Start();
}

void HostedRrqd::Stop() {
  if (tcp_ != nullptr) tcp_->Stop();
  if (server_ != nullptr) server_->Stop();
}

// ---------------------------------------------------------------------------
// Clerks

namespace {

class PoolClerks final : public Clerks {
 public:
  PoolClerks(uint16_t port, int clerks) : pool_(Options(port, clerks)) {}

  Status Start() override { return pool_.Start(); }
  Status Stop() override { return pool_.Stop(); }
  Result<std::string> Execute(size_t i, const Slice& body) override {
    return pool_.Execute(i, body);
  }
  rrq::net::TcpChannel* channel() override { return pool_.channel(); }
  uint64_t resyncs() const override { return pool_.resyncs(); }

 private:
  static rrq::client::ClerkPoolOptions Options(uint16_t port, int clerks) {
    rrq::client::ClerkPoolOptions options;
    options.channel.port = port;
    options.clerks = clerks;
    options.client_prefix = "pool";
    options.request_queue = kRequestQueue;
    return options;
  }

  rrq::client::ClerkPool pool_;
};

// ClerkPool's per-slot wiring, over a TracingChannel.
class TracedClerks final : public Clerks {
 public:
  TracedClerks(uint16_t port, int clerks, Tracer* tracer)
      : channel_(ChannelOptions(port)),
        tracing_(&channel_, tracer),
        api_(&tracing_),
        tracer_(tracer) {
    for (int i = 0; i < clerks; ++i) {
      rrq::client::ReliableClientOptions rc;
      rc.clerk.client_id = ClientId(static_cast<size_t>(i));
      rc.clerk.request_queue = kRequestQueue;
      rc.clerk.reply_queue = "reply." + rc.clerk.client_id;
      rc.clerk.api = &api_;
      clients_.push_back(std::make_unique<rrq::client::ReliableClient>(
          std::move(rc), rrq::client::ReplyProcessor()));
    }
    seq_.assign(clients_.size(), 0);
  }

  Status Start() override {
    Status s = api_.CreateQueue(kRequestQueue);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
    for (size_t i = 0; i < clients_.size(); ++i) {
      s = api_.CreateQueue("reply." + ClientId(i));
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
    for (auto& c : clients_) RRQ_RETURN_IF_ERROR(c->Start());
    return Status::OK();
  }
  Status Stop() override {
    Status first;
    for (auto& c : clients_) {
      Status s = c->Stop();
      if (!s.ok() && first.ok()) first = s;
    }
    return first;
  }
  Result<std::string> Execute(size_t i, const Slice& body) override {
    Span span;
    span.kind = SpanKind::kExecute;
    span.rid = RidId(ClientId(i) + "#" + std::to_string(++seq_[i]));
    Tracer::SetCurrentRid(span.rid);
    span.start_ns = NowNs();
    Result<std::string> r = clients_[i]->Execute(body);
    span.end_ns = NowNs();
    Tracer::SetCurrentRid(0);
    tracer_->Record(span);
    return r;
  }
  rrq::net::TcpChannel* channel() override { return &channel_; }
  uint64_t resyncs() const override {
    uint64_t total = 0;
    for (const auto& c : clients_) {
      if (c->reconnects() > 1) total += c->reconnects() - 1;
    }
    return total;
  }

 private:
  static rrq::net::TcpChannelOptions ChannelOptions(uint16_t port) {
    rrq::net::TcpChannelOptions options;
    options.port = port;
    return options;
  }

  rrq::net::TcpChannel channel_;
  TracingChannel tracing_;
  rrq::net::ChannelQueueApi api_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<rrq::client::ReliableClient>> clients_;
  std::vector<uint64_t> seq_;  // slot i is driven by one thread at a time
};

}  // namespace

std::unique_ptr<Clerks> MakePoolClerks(uint16_t port, int clerks) {
  return std::make_unique<PoolClerks>(port, clerks);
}

std::unique_ptr<Clerks> MakeTracedClerks(uint16_t port, int clerks,
                                         Tracer* tracer) {
  return std::make_unique<TracedClerks>(port, clerks, tracer);
}

}  // namespace perfbench
