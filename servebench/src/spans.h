#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Names of the spans the benchmark records around its calls into the
/// program's layers. The index is what a span stores.
enum class SpanName : uint8_t {
  kRequestPropose,    ///< one Propose, encode start to decode end
  kRequestObserve,    ///< one ObserveQueryEnd, encode start to decode end
  kEncode,            ///< wire payload encode (net/wire)
  kSend,              ///< net::Client::Send
  kRecv,              ///< net::Client::Recv of this request's response
  kDecode,            ///< wire payload decode (+ config validation)
  kSparksimExecute,   ///< sparksim::SparkSimulator::ExecuteQuery
  kWarmupStart,       ///< in-process TuningService::OnQueryStart
  kWarmupEnd,         ///< in-process TuningService::OnQueryEnd
  kRecover,           ///< TuningService::RecoverFromCheckpoint
  kCheckpoint,        ///< TuningService::Checkpoint
  kShutdown,          ///< server Stop + TuningService::Shutdown
  kCount,
};

const char* SpanNameText(SpanName name);

/// One closed interval on the steady clock. `parent` is the id of the
/// enclosing span (0 = none); spans of one client request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCount;
};

/// An in-memory, single-writer span buffer. Each client thread owns one; the
/// main thread owns another. Ids are unique across logs because each log
/// draws from its own range. Disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t log_index)
      : enabled_(enabled), next_id_((uint64_t{log_index} << 40) + 1) {}

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span whose interval is recorded later.
  uint64_t NewId() { return next_id_++; }

  void Record(uint64_t id, uint64_t parent, uint64_t request, SpanName name,
              int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back({id, parent, request, start_ns, end_ns, name});
  }
  /// Records a span with a fresh id; returns the id.
  uint64_t Add(uint64_t parent, uint64_t request, SpanName name,
               int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return 0;
    const uint64_t id = NewId();
    Record(id, parent, request, name, start_ns, end_ns);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

 private:
  bool enabled_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Writes every span of `logs` as CSV (id,parent,request,name,start_ns,
/// end_ns) with start times relative to `origin_ns`. False on I/O error.
bool WriteSpansCsv(const std::string& path,
                   const std::vector<const SpanLog*>& logs, int64_t origin_ns);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
