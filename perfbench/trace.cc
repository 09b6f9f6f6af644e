#include "trace.h"

#include <chrono>
#include <cstdlib>
#include <utility>

#include "client/clerk.h"
#include "net/queue_wire.h"
#include "util/coding.h"
#include "stack.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};
thread_local uint64_t t_current_rid = 0;

// The calling thread's buffer in the tracer identified by tracer_id.
struct LocalSlot {
  uint64_t tracer_id = 0;
  void* buffer = nullptr;
  uint32_t tid = 0;
};
thread_local LocalSlot t_slot;

class TracingWritableFile final : public rrq::env::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<rrq::env::WritableFile> base,
                      Tracer* tracer, Owner owner)
      : base_(std::move(base)), tracer_(tracer), owner_(owner) {}

  Status Append(const Slice& data) override {
    Span span;
    span.kind = SpanKind::kAppend;
    span.owner = owner_;
    span.bytes = static_cast<uint32_t>(data.size());
    span.start_ns = NowNs();
    Status s = base_->Append(data);
    span.end_ns = NowNs();
    tracer_->env(owner_).append_bytes.fetch_add(data.size(),
                                                std::memory_order_relaxed);
    tracer_->Record(span);
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    Span span;
    span.kind = SpanKind::kSync;
    span.owner = owner_;
    span.start_ns = NowNs();
    Status s = base_->Sync();
    span.end_ns = NowNs();
    tracer_->env(owner_).syncs.fetch_add(1, std::memory_order_relaxed);
    tracer_->Record(span);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<rrq::env::WritableFile> base_;
  Tracer* tracer_;
  Owner owner_;
};

class CountingSequentialFile final : public rrq::env::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<rrq::env::SequentialFile> base,
                         EnvCounters* counters)
      : base_(std::move(base)), counters_(counters) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) {
      counters_->read_bytes.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<rrq::env::SequentialFile> base_;
  EnvCounters* counters_;
};

class CountingRandomAccessFile final : public rrq::env::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<rrq::env::RandomAccessFile> base,
                           EnvCounters* counters)
      : base_(std::move(base)), counters_(counters) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) {
      counters_->read_bytes.fetch_add(result->size(),
                                      std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::unique_ptr<rrq::env::RandomAccessFile> base_;
  EnvCounters* counters_;
};

}  // namespace

const char* OwnerName(Owner o) {
  switch (o) {
    case Owner::kQm:
      return "qm";
    case Owner::kDb:
      return "db";
    case Owner::kTxn:
      return "txn";
    default:
      return "other";
  }
}

Owner OwnerOf(const std::string& fname) {
  if (fname.find("/qm/") != std::string::npos) return Owner::kQm;
  if (fname.find("/db/") != std::string::npos) return Owner::kDb;
  if (fname.find("/txn/") != std::string::npos) return Owner::kTxn;
  return Owner::kOther;
}

uint64_t RidId(const std::string& rid) {
  // "pool-<slot>#<seq>"
  const size_t dash = rid.find('-');
  const size_t hash = rid.rfind('#');
  if (dash == std::string::npos || hash == std::string::npos || hash < dash) {
    return 0;
  }
  const uint64_t slot = std::strtoull(rid.c_str() + dash + 1, nullptr, 10);
  const uint64_t seq = std::strtoull(rid.c_str() + hash + 1, nullptr, 10);
  return ((slot + 1) << 32) | (seq & 0xffffffffu);
}

Tracer::Tracer(size_t cap) : cap_(cap), id_(g_next_tracer_id.fetch_add(1)) {}
Tracer::~Tracer() = default;

void Tracer::SetCurrentRid(uint64_t rid) { t_current_rid = rid; }
uint64_t Tracer::CurrentRid() { return t_current_rid; }

Tracer::Buffer* Tracer::LocalBuffer(uint32_t* tid) {
  if (t_slot.tracer_id != id_) {
    rrq::MutexLock lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_slot.tracer_id = id_;
    t_slot.buffer = buffers_.back().get();
    t_slot.tid = static_cast<uint32_t>(buffers_.size());
  }
  *tid = t_slot.tid;
  return static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::Record(const Span& span) {
  if (kept_.fetch_add(1, std::memory_order_relaxed) >= cap_) {
    if (dropped_.fetch_add(1, std::memory_order_relaxed) == 0) {
      first_drop_ns_.store(span.start_ns);
    }
    return;
  }
  uint32_t tid = 0;
  Buffer* buffer = LocalBuffer(&tid);
  rrq::MutexLock lock(buffer->mu);
  buffer->spans.push_back(span);
  buffer->spans.back().tid = tid;
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  rrq::MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    rrq::MutexLock buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

Status TracingEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<rrq::env::SequentialFile>* result) {
  std::unique_ptr<rrq::env::SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingSequentialFile>(
      std::move(base), &tracer_->env(OwnerOf(fname)));
  return s;
}

Status TracingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<rrq::env::RandomAccessFile>* result) {
  std::unique_ptr<rrq::env::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingRandomAccessFile>(
      std::move(base), &tracer_->env(OwnerOf(fname)));
  return s;
}

Status TracingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<rrq::env::WritableFile>* result) {
  std::unique_ptr<rrq::env::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<TracingWritableFile>(std::move(base), tracer_,
                                                  OwnerOf(fname));
  return s;
}

Status TracingEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<rrq::env::WritableFile>* result) {
  std::unique_ptr<rrq::env::WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  if (!s.ok()) return s;
  *result = std::make_unique<TracingWritableFile>(std::move(base), tracer_,
                                                  OwnerOf(fname));
  return s;
}

Span HandleSpan(const Slice& request) {
  Span span;
  span.kind = SpanKind::kHandle;
  span.op = request.empty() ? 0 : static_cast<uint8_t>(request[0]);
  span.blocking = rrq::net::QueueRequestMayBlock(request);
  // The clerk tags a Send's enqueue with its rid and a Receive's dequeue
  // with [rid, ckpt]; decoding the tag ties server-side spans to their
  // request. Layout: [op][queue][contents][priority][registrant][tag]
  // for an enqueue, [op][queue][registrant][tag][timeout] for a dequeue.
  Slice input = request;
  Slice field;
  if (input.empty()) return span;
  input.remove_prefix(1);
  if (span.op == rrq::net::kOpEnqueue) {
    uint32_t priority = 0;
    if (rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::util::GetVarint32(&input, &priority).ok() &&
        rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::util::GetLengthPrefixed(&input, &field).ok()) {
      span.rid = RidId(field.ToString());
    }
  } else if (span.op == rrq::net::kOpDequeue) {
    std::string rid, ckpt;
    if (rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::util::GetLengthPrefixed(&input, &field).ok() &&
        rrq::client::DecodeReplyTag(field, &rid, &ckpt).ok()) {
      span.rid = RidId(rid);
    }
  }
  return span;
}

Span TracingChannel::Begin(const Slice& request) const {
  Span span;
  span.kind = SpanKind::kCall;
  span.op = request.empty() ? 0 : static_cast<uint8_t>(request[0]);
  span.blocking = rrq::net::QueueRequestMayBlock(request);
  span.rid = Tracer::CurrentRid();
  span.start_ns = NowNs();
  return span;
}

Status TracingChannel::Call(const Slice& request, std::string* reply) {
  return Call(request, reply, rrq::net::CallOptions());
}

Status TracingChannel::Call(const Slice& request, std::string* reply,
                            const rrq::net::CallOptions& options) {
  Span span = Begin(request);
  Status s = base_->Call(request, reply, options);
  span.end_ns = NowNs();
  tracer_->Record(span);
  return s;
}

void TracingChannel::CallAsync(const Slice& request, Callback done) {
  CallAsync(request, rrq::net::CallOptions(), std::move(done));
}

void TracingChannel::CallAsync(const Slice& request,
                               const rrq::net::CallOptions& options,
                               Callback done) {
  Span span = Begin(request);
  base_->CallAsync(
      request, options,
      [this, span, done = std::move(done)](Status s,
                                           std::string reply) mutable {
        span.end_ns = NowNs();
        tracer_->Record(span);
        done(std::move(s), std::move(reply));
      });
}

}  // namespace perfbench
