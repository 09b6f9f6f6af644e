#ifndef RRQ_PERFBENCH_TRACE_H_
#define RRQ_PERFBENCH_TRACE_H_

// Outside-in tracing: decorators over the layers' public seams (an
// env::Env, a net::Channel, the TCP handler and the request handler),
// recording one span per call into per-thread in-memory buffers that
// are collected after the stack stops. No src/ file knows about it.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "net/transport.h"
#include "util/thread_annotations.h"

namespace perfbench {

using rrq::Slice;
using rrq::Status;

enum class SpanKind : uint8_t {
  kExecute = 0,  // client: one Fig 2 request (or one volatile pair)
  kCall,         // net, client side: one Channel call
  kHandle,       // net/queue, server side: QueueServiceDispatcher::Handle
  kHandler,      // server/storage: the request handler (demo KvStore work)
  kAppend,       // env: WritableFile::Append
  kSync,         // env: WritableFile::Sync
};

/// Which state dir a file lives in (rrqd's three WAL owners).
enum class Owner : uint8_t { kOther = 0, kQm, kDb, kTxn, kCount };
const char* OwnerName(Owner o);
Owner OwnerOf(const std::string& fname);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Request id: (slot + 1) << 32 | sequence for rid "pool-<slot>#<seq>";
  /// 0 when the span is not tied to one request.
  uint64_t rid = 0;
  uint32_t tid = 0;     // small per-thread index
  uint32_t bytes = 0;   // env appends
  SpanKind kind = SpanKind::kExecute;
  uint8_t op = 0;       // queue-service op code (kCall, kHandle)
  Owner owner = Owner::kOther;
  bool blocking = false;  // a Dequeue carrying a wait timeout
};

/// Encodes the rid "pool-<slot>#<seq>" as a Span::rid; 0 if malformed.
uint64_t RidId(const std::string& rid);

/// Per-owner env counters, kept whether or not spans are recorded so
/// counts stay exact past the span cap.
struct EnvCounters {
  std::atomic<uint64_t> append_bytes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> read_bytes{0};
};

/// Span sink. Spans go to a buffer owned by the recording thread (one
/// uncontended lock per span); Collect() merges them once the traced
/// stack has stopped. At most `cap` spans are kept; the rest are
/// counted as dropped.
class Tracer {
 public:
  explicit Tracer(size_t cap);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(const Span& span);
  std::vector<Span> Collect();
  uint64_t dropped() const { return dropped_.load(); }
  /// When the first span was dropped (INT64_MAX if none was): spans are
  /// complete only before it.
  int64_t first_drop_ns() const { return first_drop_ns_.load(); }

  EnvCounters& env(Owner o) { return env_[static_cast<size_t>(o)]; }

  /// The rid the calling thread is working on (kCall spans carry it).
  static void SetCurrentRid(uint64_t rid);
  static uint64_t CurrentRid();

 private:
  struct Buffer {
    rrq::Mutex mu;
    std::vector<Span> spans GUARDED_BY(mu);
  };
  Buffer* LocalBuffer(uint32_t* tid);

  const size_t cap_;
  const uint64_t id_;
  std::atomic<size_t> kept_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<int64_t> first_drop_ns_{INT64_MAX};
  rrq::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
  std::array<EnvCounters, static_cast<size_t>(Owner::kCount)> env_;
};

/// env::Env decorator: times Append/Sync and counts bytes written and
/// read, per owner directory. Everything else forwards to `base`.
class TracingEnv final : public rrq::env::Env {
 public:
  TracingEnv(rrq::env::Env* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<rrq::env::SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<rrq::env::RandomAccessFile>* result) override;
  Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<rrq::env::WritableFile>* result) override;
  Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<rrq::env::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  rrq::env::Env* base_;
  Tracer* tracer_;
};

/// net::Channel decorator: one kCall span per call, tagged with the
/// op code, the blocking flag and the calling thread's current rid.
class TracingChannel final : public rrq::net::Channel {
 public:
  TracingChannel(rrq::net::Channel* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  Status Call(const Slice& request, std::string* reply) override;
  Status Call(const Slice& request, std::string* reply,
              const rrq::net::CallOptions& options) override;
  void CallAsync(const Slice& request, Callback done) override;
  void CallAsync(const Slice& request, const rrq::net::CallOptions& options,
                 Callback done) override;
  Status SendOneWay(const Slice& message) override {
    return base_->SendOneWay(message);
  }

 private:
  Span Begin(const Slice& request) const;

  rrq::net::Channel* base_;
  Tracer* tracer_;
};

/// A kHandle span for a request about to be dispatched.
Span HandleSpan(const Slice& request);

}  // namespace perfbench

#endif  // RRQ_PERFBENCH_TRACE_H_
