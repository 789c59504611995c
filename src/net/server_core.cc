#include "net/server_core.h"

#include <chrono>

namespace rockhopper::net {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ServerCore::ServerCore(core::TuningService* service, const PlanRegistry* plans,
                       const ServerCoreOptions& options)
    : service_(service),
      plans_(plans),
      options_(options),
      metrics_(&core::ServiceMetrics::Get()),
      tenant_limiter_(options.tenant_limits),
      admission_(options.admission),
      shared_budget_bytes_(options.tiering_budget_bytes) {
  metrics_->admission_rate->Set(1.0);
}

void ServerCore::SetSharedBudget(uint64_t bytes) {
  shared_budget_bytes_.store(bytes, std::memory_order_relaxed);
  service_->SetSharedBudgetBytes(static_cast<size_t>(bytes));
}

void ServerCore::MaybeUpdateAdmission(uint64_t now_ns, size_t queue_depth) {
  if (!admission_.ShouldUpdate(now_ns)) return;
  AdmissionSignals signals;
  {
    // One sampler at a time: the flush baseline is a read-modify-write.
    std::lock_guard<std::mutex> lock(sample_mu_);
    signals.journal_flush_p99 =
        WindowedP99(metrics_->journal_flush_seconds, &flush_baseline_);
  }
  signals.queue_depth = static_cast<double>(queue_depth);
  const uint64_t budget =
      shared_budget_bytes_.load(std::memory_order_relaxed);
  if (budget > 0) {
    signals.resident_fraction =
        metrics_->state_resident_bytes->Value() / static_cast<double>(budget);
  }
  admission_.Update(signals);
  metrics_->admission_rate->Set(admission_.rate());
  metrics_->net_queue_depth->Set(static_cast<double>(queue_depth));
}

bool Session::OnBytes(const void* data, size_t size, uint64_t now_ns,
                      std::string* out) {
  decoder_.Feed(data, size);
  core_->metrics().net_rx_bytes->Increment(size);
  Frame frame;
  for (;;) {
    const DecodeResult result = decoder_.Next(&frame);
    switch (result) {
      case DecodeResult::kNeedMore:
        Flush(out);
        return true;
      case DecodeResult::kFrame:
        if (!HandleFrame(frame, now_ns, out)) {
          Flush(out);
          return false;
        }
        break;
      case DecodeResult::kBadCrc:
        // The stream is still aligned (the length prefix delimited the
        // frame); answer the typed error and keep the connection.
        core_->metrics().net_bad_crc->Increment();
        AppendResponse(out, WireStatus::kBadCrc, frame.header.tenant,
                       frame.header.seq, "");
        break;
      case DecodeResult::kBadMagic:
      case DecodeResult::kBadVersion:
      case DecodeResult::kOversized:
        // Framing itself is lost: one last typed response, then close.
        core_->metrics().net_bad_frame->Increment();
        Flush(out);
        AppendResponse(out, WireStatus::kBadFrame, 0, 0, "");
        return false;
    }
  }
}

bool Session::HandleFrame(const Frame& frame, uint64_t now_ns,
                          std::string* out) {
  if (frame.header.is_response()) {
    // Clients must not send response-flagged frames; the stream is suspect.
    core_->metrics().net_bad_frame->Increment();
    AppendResponse(out, WireStatus::kBadFrame, frame.header.tenant,
                   frame.header.seq, "");
    return false;
  }
  const Verb verb = static_cast<Verb>(frame.header.verb);
  switch (verb) {
    case Verb::kObserveQueryEnd:
      HandleObserve(frame, now_ns, out);
      return true;
    case Verb::kPropose:
      HandlePropose(frame, now_ns, out);
      return true;
    case Verb::kMetrics: {
      // Operator verbs bypass admission — they are how overload is seen.
      Flush(out);
      core_->metrics().net_requests_metrics->Increment();
      std::string text = core_->service()->Metrics().ToPrometheusText();
      if (text.size() > kMaxPayload) text.resize(kMaxPayload);
      AppendResponse(out, WireStatus::kOk, frame.header.tenant,
                     frame.header.seq, text);
      return true;
    }
    case Verb::kHealth: {
      Flush(out);
      core_->metrics().net_requests_health->Increment();
      HealthReport report;
      report.serving = !core_->shutting_down();
      report.admission_rate = core_->admission().rate();
      AppendResponse(out, WireStatus::kOk, frame.header.tenant,
                     frame.header.seq, EncodeHealthPayload(report));
      return true;
    }
    case Verb::kAdmin:
      HandleAdmin(frame, out);
      return true;
  }
  Flush(out);
  AppendResponse(out, WireStatus::kUnknownVerb, frame.header.tenant,
                 frame.header.seq, "");
  return true;
}

void Session::HandleObserve(const Frame& frame, uint64_t now_ns,
                            std::string* out) {
  core_->metrics().net_requests_observe->Increment();
  if (core_->shutting_down()) {
    Flush(out);
    AppendResponse(out, WireStatus::kShuttingDown, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  // Admission runs before decode work is spent on the payload: the tenant's
  // own bucket first (noisy tenants hit this), then the global controller.
  if (!core_->tenant_limiter().Admit(frame.header.tenant, now_ns)) {
    core_->metrics().net_shed_tenant->Increment();
    Flush(out);
    AppendResponse(out, WireStatus::kBusy, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  if (!core_->admission().Admit()) {
    core_->metrics().net_shed_global->Increment();
    Flush(out);
    AppendResponse(out, WireStatus::kBusy, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  ObserveRequest request;
  if (!DecodeObservePayload(frame.payload, frame.payload_len, &request)) {
    core_->metrics().net_bad_payload->Increment();
    Flush(out);
    AppendResponse(out, WireStatus::kBadPayload, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  const sparksim::QueryPlan* plan = core_->plans().Find(request.signature);
  if (plan == nullptr) {
    Flush(out);
    AppendResponse(out, WireStatus::kUnknownSignature, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  PendingObserve pending;
  pending.tenant = frame.header.tenant;
  pending.seq = frame.header.seq;
  pending.plan = plan;
  pending.event = std::move(request.event);
  pending_.push_back(std::move(pending));
  if (pending_.size() >= core_->options().max_batch) Flush(out);
}

void Session::HandlePropose(const Frame& frame, uint64_t now_ns,
                            std::string* out) {
  core_->metrics().net_requests_propose->Increment();
  // Proposals are answered in request order relative to staged observes.
  Flush(out);
  if (core_->shutting_down()) {
    AppendResponse(out, WireStatus::kShuttingDown, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  if (!core_->tenant_limiter().Admit(frame.header.tenant, now_ns)) {
    core_->metrics().net_shed_tenant->Increment();
    AppendResponse(out, WireStatus::kBusy, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  if (!core_->admission().Admit()) {
    core_->metrics().net_shed_global->Increment();
    AppendResponse(out, WireStatus::kBusy, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  ProposeRequest request;
  if (!DecodeProposePayload(frame.payload, frame.payload_len, &request)) {
    core_->metrics().net_bad_payload->Increment();
    AppendResponse(out, WireStatus::kBadPayload, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  const sparksim::QueryPlan* plan = core_->plans().Find(request.signature);
  if (plan == nullptr) {
    AppendResponse(out, WireStatus::kUnknownSignature, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  const double start = NowSeconds();
  const sparksim::ConfigVector config =
      core_->service()->OnQueryStart(*plan, request.expected_data_size);
  core_->metrics().net_request_seconds->Observe(NowSeconds() - start);
  AppendResponse(out, WireStatus::kOk, frame.header.tenant, frame.header.seq,
                 EncodeConfigPayload(config));
}

void Session::HandleAdmin(const Frame& frame, std::string* out) {
  // Operator verb: staged observes flush first so responses stay in request
  // order, and admission is bypassed — the control plane must keep working
  // precisely when the data plane is shedding.
  Flush(out);
  core_->metrics().net_requests_admin->Increment();
  AdminRequest request;
  if (!DecodeAdminPayload(frame.payload, frame.payload_len, &request)) {
    core_->metrics().net_bad_payload->Increment();
    AppendResponse(out, WireStatus::kBadPayload, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  // Token handshake: a server started without --admin-token refuses every
  // Admin frame (no default credential), and a wrong token changes nothing.
  const std::string& token = core_->options().admin_token;
  if (token.empty() || request.token != token) {
    core_->metrics().net_admin_unauthorized->Increment();
    AppendResponse(out, WireStatus::kUnauthorized, frame.header.tenant,
                   frame.header.seq, "");
    return;
  }
  switch (request.op) {
    case AdminOp::kSetTenantRate:
      core_->tenant_limiter().SetTenantRate(request.tenant, request.value);
      break;
    case AdminOp::kSetSharedBudget:
      core_->SetSharedBudget(static_cast<uint64_t>(request.value));
      break;
  }
  AppendResponse(out, WireStatus::kOk, frame.header.tenant, frame.header.seq,
                 "");
}

void Session::Flush(std::string* out) {
  if (pending_.empty()) return;
  core_->metrics().net_batch_size->Observe(
      static_cast<double>(pending_.size()));
  std::vector<core::TuningService::QueryEndBatchEntry> entries;
  entries.reserve(pending_.size());
  for (const PendingObserve& p : pending_) {
    entries.push_back({p.plan, &p.event});
  }
  const double start = NowSeconds();
  const std::vector<core::TelemetryVerdict> verdicts =
      core_->service()->OnQueryEndBatch(entries);
  const double elapsed = NowSeconds() - start;
  // One service pass served the whole batch; each request in it is charged
  // the whole call.
  for (size_t i = 0; i < pending_.size(); ++i) {
    core_->metrics().net_request_seconds->Observe(elapsed);
    AppendResponse(out, WireStatus::kOk, pending_[i].tenant, pending_[i].seq,
                   EncodeVerdictPayload(verdicts[i]));
  }
  pending_.clear();
}

}  // namespace rockhopper::net
