#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "inputs.h"
#include "net/client.h"
#include "sparksim/simulator.h"
#include "spans.h"

namespace servebench {

namespace net = rockhopper::net;
namespace common = rockhopper::common;

enum class Traffic {
  /// Drivers each loop Propose -> execute in sparksim -> ObserveQueryEnd.
  kCycle,
  /// A telemetry bus: ObserveQueryEnd frames for sparksim runs of configs
  /// sampled near each signature's incumbent; no Propose.
  kFlood,
};

/// How a cycle picks its signature. Without a touch order every cycle draws
/// uniformly from the population. With one (restart_recover), each cycle
/// is, with probability `first_touch_share`, the first touch of the next
/// signature in this thread's slice of the seeded permutation (a fault-in
/// by replay of its recovered history), and otherwise a re-touch of a
/// signature drawn from this thread's `recent_window` latest first touches
/// (a resident hit).
struct TargetMix {
  const std::vector<uint32_t>* touch_order = nullptr;
  double first_touch_share = 0.0;
  size_t recent_window = 0;
  size_t slice_offset = 0;
  size_t slice_stride = 1;
};

struct LoadOptions {
  Traffic traffic = Traffic::kCycle;
  /// Cycle drivers (kCycle) or frames (kFlood) kept in flight.
  int in_flight = 4;
  uint16_t port = 0;
  uint32_t index = 0;  ///< client thread index; tenant id is index + 1
  uint64_t seed = 0;
  const Population* population = nullptr;
  /// kFlood: per-signature incumbent configs the bus samples around.
  const std::vector<sparksim::ConfigVector>* incumbents = nullptr;
  /// kFlood: every this many requests is a Propose probe (0 = none).
  int propose_every = 0;
  /// Whether kOk latencies are recorded.
  bool timed = true;
  TargetMix mix;
};

/// Sum and count of one client-side span kind (traced runs only).
struct LayerSum {
  int64_t ns = 0;
  uint64_t count = 0;
  void Add(int64_t d) {
    ns += d;
    ++count;
  }
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(ns) / count / 1e3;
  }
};

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;      ///< any other non-kOk reply or an invalid reply
  uint64_t unanswered = 0;  ///< in flight when the connection failed
  uint64_t propose_ok = 0;
  uint64_t observe_ok = 0;
  uint64_t bad_configs = 0;        ///< Propose replies failing decode/Validate
  uint64_t rejected_verdicts = 0;  ///< Observe replies with a reject verdict
  uint64_t bad_replies = 0;        ///< wrong seq or undecodable verdict
  uint64_t first_touches = 0;
  /// First touches drawn after this thread's slice of the touch order ran
  /// out: re-touches of resident signatures, with no fault-in. Must be 0.
  uint64_t repeated_first_touches = 0;
  uint64_t re_touches = 0;
  /// kOk latencies in reply order (timed clients only).
  std::vector<uint32_t> propose_ns;
  std::vector<uint32_t> observe_ns;
  LayerSum encode_propose, encode_observe, send, recv, decode_propose,
      decode_observe, sparksim;
  int64_t last_response_ns = 0;
  std::string error;
};

/// One client connection and the thread-owned state driving it: a closed
/// loop with a fixed number of requests in flight, pipelined on the one
/// connection. Responses return in request order per connection.
class LoadClient {
 public:
  explicit LoadClient(const LoadOptions& options);

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  rockhopper::Status Connect();
  /// Issues requests until `deadline_ns` or until `max_requests` were sent,
  /// then drains what is in flight, recording spans into `log`. May be
  /// called again for a later phase: the connection, random streams and
  /// touch position carry over.
  void Run(int64_t deadline_ns, uint64_t max_requests, SpanLog* log);
  /// Hands over the result of the runs so far and starts a fresh one.
  LoadResult TakeResult();
  void Close() { client_.Close(); }

 private:
  struct Pending {
    uint32_t seq = 0;
    bool propose = false;
    uint32_t target = 0;  ///< population index
    int64_t start_ns = 0;
    uint64_t span_id = 0;
  };

  uint32_t PickTarget();
  void IssuePropose(uint32_t target);
  /// Sends the ObserveQueryEnd for a run of `config` on `target`;
  /// `run` is the sparksim result.
  void IssueObserve(uint32_t target,
                    const sparksim::ConfigVector& config,
                    const sparksim::ExecutionResult& run,
                    uint64_t exec_span_request);
  /// Executes `config` on `target` in sparksim (timed when traced).
  sparksim::ExecutionResult Execute(uint32_t target,
                                    const sparksim::ConfigVector& config,
                                    uint64_t* span_request);
  /// kFlood: the bus's next request (an observe, or a Propose probe).
  void IssueFloodNext();
  void Send(Pending pending, net::Verb verb, const std::string& payload,
            int64_t encode_end_ns);
  void HandleResponse(const net::Client::Response& response,
                      int64_t recv_start_ns, int64_t recv_end_ns,
                      bool issue_next);

  LoadOptions options_;
  SpanLog* log_ = nullptr;
  net::Client client_;
  common::Rng rng_;
  sparksim::SparkSimulator sim_;
  sparksim::ConfigSpace space_;
  std::deque<Pending> outstanding_;
  uint64_t next_event_id_;
  size_t next_first_touch_ = 0;
  std::vector<uint32_t> recent_;
  size_t recent_next_ = 0;
  uint64_t flood_requests_ = 0;
  LoadResult result_;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
