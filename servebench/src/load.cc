#include "load.h"

#include <algorithm>
#include <limits>

#include "net/wire.h"

namespace servebench {

using rockhopper::Status;
namespace core = rockhopper::core;

namespace {

constexpr uint64_t kClientTag = 0x636c69656e74;  // "client"
/// Relative neighborhood the telemetry bus samples around an incumbent.
constexpr double kFloodStep = 0.1;
/// A response slower than this counts the rest of the window unanswered.
constexpr int kRecvTimeoutMs = 20000;

uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(
      ns, 0, std::numeric_limits<uint32_t>::max()));
}

}  // namespace

LoadClient::LoadClient(const LoadOptions& options)
    : options_(options),
      rng_(common::SplitMix64(options.seed ^ kClientTag ^
                              (uint64_t{options.index} + 1) * 0x9e37)),
      sim_(ClusterOptions(common::SplitMix64(options.seed ^ kClientTag) +
                          options.index)),
      space_(sparksim::QueryLevelSpace()),
      next_event_id_((uint64_t{options.index} + 1) << 48) {
  recent_.reserve(options.mix.recent_window);
  (void)TakeResult();
}

LoadResult LoadClient::TakeResult() {
  LoadResult taken = std::move(result_);
  result_ = LoadResult();
  result_.propose_ns.reserve(1 << 20);
  result_.observe_ns.reserve(1 << 20);
  return taken;
}

Status LoadClient::Connect() {
  ROCKHOPPER_RETURN_IF_ERROR(client_.Connect("127.0.0.1", options_.port));
  client_.SetRecvTimeout(kRecvTimeoutMs);
  return Status::OK();
}

uint32_t LoadClient::PickTarget() {
  const TargetMix& mix = options_.mix;
  if (mix.touch_order == nullptr) {
    return static_cast<uint32_t>(
        rng_.Index(options_.population->plans.size()));
  }
  // The draw happens on every cycle, so the first-touch share is fixed by
  // the seed and does not drift as the permutation is consumed.
  if (!rng_.Bernoulli(mix.first_touch_share) && !recent_.empty()) {
    ++result_.re_touches;
    return recent_[rng_.Index(recent_.size())];
  }
  ++result_.first_touches;
  const size_t slice =
      (mix.touch_order->size() - mix.slice_offset + mix.slice_stride - 1) /
      mix.slice_stride;
  if (next_first_touch_ >= slice) ++result_.repeated_first_touches;
  const uint32_t target =
      (*mix.touch_order)[mix.slice_offset +
                         mix.slice_stride * (next_first_touch_++ % slice)];
  if (recent_.size() < mix.recent_window) {
    recent_.push_back(target);
  } else {
    recent_[recent_next_] = target;
    recent_next_ = (recent_next_ + 1) % mix.recent_window;
  }
  return target;
}

void LoadClient::Send(Pending pending, net::Verb verb,
                      const std::string& payload, int64_t encode_end_ns) {
  const uint32_t tenant = options_.index + 1;
  const Status sent = client_.Send(verb, tenant, pending.seq, payload);
  ++result_.attempted;
  if (log_->enabled()) {
    const int64_t send_end = NowNs();
    const uint64_t request = pending.span_id;
    const bool propose = verb == net::Verb::kPropose;
    log_->Add(request, request, SpanName::kEncode, pending.start_ns,
              encode_end_ns);
    log_->Add(request, request, SpanName::kSend, encode_end_ns, send_end);
    (propose ? result_.encode_propose : result_.encode_observe)
        .Add(encode_end_ns - pending.start_ns);
    result_.send.Add(send_end - encode_end_ns);
  }
  if (!sent.ok()) {
    ++result_.errors;
    if (result_.error.empty()) result_.error = sent.ToString();
    return;
  }
  outstanding_.push_back(std::move(pending));
}

void LoadClient::IssuePropose(uint32_t target) {
  Pending pending;
  pending.seq = client_.NextSeq();
  pending.propose = true;
  pending.target = target;
  pending.span_id = log_->enabled() ? log_->NewId() : 0;
  const sparksim::QueryPlan& plan = options_.population->plans[target];
  pending.start_ns = NowNs();
  const std::string payload = net::EncodeProposePayload(
      options_.population->signatures[target], plan.LeafInputBytes(1.0));
  const int64_t encoded = log_->enabled() ? NowNs() : 0;
  Send(std::move(pending), net::Verb::kPropose, payload, encoded);
}

sparksim::ExecutionResult LoadClient::Execute(
    uint32_t target, const sparksim::ConfigVector& config,
    uint64_t* span_request) {
  const int64_t start = log_->enabled() ? NowNs() : 0;
  sparksim::ExecutionResult run =
      sim_.ExecuteQuery(options_.population->plans[target], config, 1.0);
  if (log_->enabled()) {
    const int64_t end = NowNs();
    *span_request = log_->NewId();
    log_->Add(0, *span_request, SpanName::kSparksimExecute, start, end);
    result_.sparksim.Add(end - start);
  }
  return run;
}

void LoadClient::IssueObserve(uint32_t target,
                              const sparksim::ConfigVector& config,
                              const sparksim::ExecutionResult& run,
                              uint64_t exec_span_request) {
  core::QueryEndEvent event;
  event.event_id = ++next_event_id_;
  event.config = config;
  event.data_size = run.input_bytes;
  event.runtime = run.runtime_seconds;
  event.failed = run.failed;
  event.failure = run.failure;
  Pending pending;
  pending.seq = client_.NextSeq();
  pending.target = target;
  // The sparksim span shares the id of the request it produced.
  pending.span_id = exec_span_request;
  pending.start_ns = NowNs();
  const std::string payload = net::EncodeObservePayload(
      options_.population->signatures[target], event);
  const int64_t encoded = log_->enabled() ? NowNs() : 0;
  Send(std::move(pending), net::Verb::kObserveQueryEnd, payload, encoded);
}

void LoadClient::IssueFloodNext() {
  const uint32_t target = static_cast<uint32_t>(
      rng_.Index(options_.population->plans.size()));
  if (options_.propose_every > 0 &&
      ++flood_requests_ % static_cast<uint64_t>(options_.propose_every) == 0) {
    IssuePropose(target);
    return;
  }
  const sparksim::ConfigVector config = space_.SampleNeighbor(
      (*options_.incumbents)[target], kFloodStep, &rng_);
  uint64_t span_request = 0;
  const sparksim::ExecutionResult run = Execute(target, config, &span_request);
  IssueObserve(target, config, run, span_request);
}

void LoadClient::HandleResponse(const net::Client::Response& response,
                                int64_t recv_start_ns, int64_t recv_end_ns,
                                bool issue_next) {
  Pending pending = std::move(outstanding_.front());
  outstanding_.pop_front();
  bool ok = response.status == net::WireStatus::kOk &&
            response.seq == pending.seq;
  if (response.seq != pending.seq) ++result_.bad_replies;
  sparksim::ConfigVector config;
  if (ok && pending.propose) {
    const auto* data = reinterpret_cast<const uint8_t*>(
        response.payload.data());
    if (!net::DecodeConfigPayload(data, response.payload.size(), &config) ||
        !space_.Validate(config).ok()) {
      ++result_.bad_configs;
      ok = false;
    }
  } else if (ok) {
    core::TelemetryVerdict verdict = core::TelemetryVerdict::kAccept;
    const auto* data = reinterpret_cast<const uint8_t*>(
        response.payload.data());
    if (!net::DecodeVerdictPayload(data, response.payload.size(), &verdict)) {
      ++result_.bad_replies;
      ok = false;
    } else if (verdict != core::TelemetryVerdict::kAccept) {
      ++result_.rejected_verdicts;
    }
  }
  const int64_t end = NowNs();
  result_.last_response_ns = end;
  if (ok) {
    ++result_.ok;
    ++(pending.propose ? result_.propose_ok : result_.observe_ok);
    if (options_.timed) {
      (pending.propose ? result_.propose_ns : result_.observe_ns)
          .push_back(ClampNs(end - pending.start_ns));
    }
  } else if (response.status == net::WireStatus::kBusy) {
    ++result_.busy;
  } else {
    ++result_.errors;
  }
  if (log_->enabled()) {
    const uint64_t request = pending.span_id;
    log_->Add(request, request, SpanName::kRecv, recv_start_ns, recv_end_ns);
    log_->Add(request, request, SpanName::kDecode, recv_end_ns, end);
    log_->Record(request, 0, request,
                 pending.propose ? SpanName::kRequestPropose
                                 : SpanName::kRequestObserve,
                 pending.start_ns, end);
    result_.recv.Add(recv_end_ns - recv_start_ns);
    (pending.propose ? result_.decode_propose : result_.decode_observe)
        .Add(end - recv_end_ns);
  }
  if (!issue_next) return;
  if (options_.traffic == Traffic::kFlood) {
    IssueFloodNext();
  } else if (pending.propose && ok) {
    uint64_t span_request = 0;
    const sparksim::ExecutionResult run =
        Execute(pending.target, config, &span_request);
    IssueObserve(pending.target, config, run, span_request);
  } else {
    IssuePropose(PickTarget());
  }
}

void LoadClient::Run(int64_t deadline_ns, uint64_t max_requests,
                     SpanLog* log) {
  log_ = log;
  const uint64_t sent_before = result_.attempted;
  for (int i = 0; i < options_.in_flight; ++i) {
    if (options_.traffic == Traffic::kFlood) {
      IssueFloodNext();
    } else {
      IssuePropose(PickTarget());
    }
  }
  net::Client::Response response;
  while (!outstanding_.empty()) {
    const int64_t recv_start = log_->enabled() ? NowNs() : 0;
    const Status received = client_.Recv(&response);
    if (!received.ok()) {
      result_.unanswered += outstanding_.size();
      outstanding_.clear();
      if (result_.error.empty()) result_.error = received.ToString();
      break;
    }
    const int64_t recv_end = log_->enabled() ? NowNs() : 0;
    HandleResponse(response, recv_start, recv_end,
                   result_.attempted - sent_before < max_requests &&
                       NowNs() < deadline_ns);
  }
}

}  // namespace servebench
