#include "core/ingest_pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/statistics.h"
#include "sim/buggify.h"

namespace rockhopper::core {

double FailurePolicyStage::ImputeFailedRuntime(
    const QueryEndEvent& event, const ObservationWindow& recent) const {
  const double penalty = std::max(1.0, options_.penalty_multiplier);
  // Typical successful runtime over the recent window.
  std::vector<double> successes;
  for (const Observation& obs : recent) {
    if (!obs.failed) successes.push_back(obs.runtime);
  }
  if (!successes.empty()) return penalty * common::Median(successes);
  // No successful history: penalize the reported burn time when usable,
  // otherwise a unit runtime so the penalty is still positive.
  if (std::isfinite(event.runtime) && event.runtime > 0.0) {
    return penalty * event.runtime;
  }
  return penalty;
}

Observation FailurePolicyStage::Apply(const QueryEndEvent& event,
                                      const ObservationWindow& recent,
                                      size_t iteration,
                                      QueryState* state) const {
  Observation obs;
  obs.config = event.config;
  obs.data_size = event.data_size;
  obs.runtime = event.runtime;
  obs.failed = event.failed;
  obs.iteration = static_cast<int>(iteration);

  if (event.failed) {
    obs.runtime = ImputeFailedRuntime(event, recent);
    ++state->consecutive_failures;
    if (options_.fallback_after > 0 &&
        state->consecutive_failures >= options_.fallback_after) {
      // Bounded retry-with-fallback: defaults for `backoff` runs, widening
      // exponentially while the streak persists.
      state->fallback_remaining = state->backoff;
      state->backoff = std::min(state->backoff * 2, options_.max_backoff);
    }
  } else {
    // A success ends the streak, but the backoff width stays widened: a
    // signature that keeps slipping back into failure streaks earns longer
    // and longer default-only windows (mirroring the guardrail's sticky
    // failure strikes).
    state->consecutive_failures = 0;
  }
  return obs;
}

bool TuneStage::Apply(const Observation& obs, QueryState* state) const {
  if (state->disabled) return false;
  state->tuner->Observe(obs.config, obs.data_size, obs.runtime);
  if (enable_guardrail_ && !state->guardrail.Record(obs)) {
    state->disabled = true;
  }
  return !state->disabled;
}

void JournalStage::Append(ObservationJournal* journal, uint64_t signature,
                          const Observation& obs) {
  if (journal == nullptr) return;
  if (journal->Append(signature, obs).ok()) return;
  ServiceMetrics::Get().journal_errors->Increment();
  const uint64_t count = errors_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count == 1 || count % 100 == 0) {
    ROCKHOPPER_LOG(kWarning) << "journal append failed (" << count
                             << " errors so far): " << journal->path();
  }
}

namespace {

common::Counter* VerdictCounter(const ServiceMetrics& metrics,
                                TelemetryVerdict verdict) {
  switch (verdict) {
    case TelemetryVerdict::kAccept:
      return metrics.telemetry_accepted;
    case TelemetryVerdict::kRejectNonFinite:
      return metrics.telemetry_rejected_nonfinite;
    case TelemetryVerdict::kRejectNonPositive:
      return metrics.telemetry_rejected_nonpositive;
    case TelemetryVerdict::kRejectDuplicate:
      return metrics.telemetry_rejected_duplicate;
    case TelemetryVerdict::kRejectConfig:
      return metrics.telemetry_rejected_config;
    case TelemetryVerdict::kSimDropped:
      return metrics.telemetry_sim_dropped;
  }
  return metrics.telemetry_accepted;
}

}  // namespace

TelemetryVerdict IngestPipeline::Ingest(uint64_t signature,
                                        const QueryEndEvent& event,
                                        QueryState* state,
                                        ObservationStore* store,
                                        ObservationJournal* journal) {
  const TelemetryVerdict verdict =
      IngestOnce(signature, event, state, store, journal);
  if (verdict == TelemetryVerdict::kAccept &&
      ROCKHOPPER_BUGGIFY("ingest.deliver.redeliver")) {
    // The bus re-delivers an already-ingested event (at-least-once
    // delivery); the dedup window must reject it. Counted as one more
    // delivery so the conservation invariant stays exact.
    metrics_->queries_ended->Increment();
    IngestOnce(signature, event, state, store, journal);
  }
  return verdict;
}

void IngestPipeline::IngestBatch(uint64_t signature,
                                 const QueryEndEvent* const* events,
                                 size_t count, QueryState* state,
                                 ObservationStore* store,
                                 ObservationJournal* journal,
                                 std::vector<TelemetryVerdict>* verdicts) {
  verdicts->reserve(verdicts->size() + count);
  for (size_t i = 0; i < count; ++i) {
    verdicts->push_back(Ingest(signature, *events[i], state, store, journal));
  }
}

TelemetryVerdict IngestPipeline::IngestOnce(uint64_t signature,
                                            const QueryEndEvent& event,
                                            QueryState* state,
                                            ObservationStore* store,
                                            ObservationJournal* journal) {
  ScopedSpan total_span(metrics_->ingest_seconds);
  if (ROCKHOPPER_BUGGIFY("ingest.deliver.drop")) {
    // The delivery dies before the sanitizer sees it (bus partition,
    // transport timeout) — the service must behave as if it never arrived.
    metrics_->telemetry_sim_dropped->Increment();
    return TelemetryVerdict::kSimDropped;
  }
  TelemetryVerdict verdict;
  {
    ScopedSpan span(metrics_->stage_sanitize);
    verdict = sanitize_.Admit(signature, event);
  }
  VerdictCounter(*metrics_, verdict)->Increment();
  if (verdict != TelemetryVerdict::kAccept) {
    return verdict;  // rejected events only move the counters
  }
  if (event.failed) metrics_->failures_ingested->Increment();
  Observation obs;
  {
    ScopedSpan span(metrics_->stage_failure_policy);
    // The imputation window is read before the new observation lands,
    // exactly as the pre-pipeline fused path did.
    size_t window =
        static_cast<size_t>(std::max(1, failure_policy_.window_size()));
    if (ROCKHOPPER_BUGGIFY("ingest.window.shrink")) {
      // Starved imputation window: the stage sees only the latest
      // observation, so failure imputation leans on a single sample. The
      // imputed runtime is journaled, so recovery still replays identically.
      window = 1;
    }
    // Only imputation reads the window, so a success skips the copy; the
    // section above still runs on every event, keeping sim draws aligned.
    const ObservationWindow recent = event.failed
                                         ? store->LastN(signature, window)
                                         : ObservationWindow();
    const int fallback_before = state->fallback_remaining;
    obs = failure_policy_.Apply(event, recent, store->Count(signature), state);
    if (state->fallback_remaining > fallback_before) {
      metrics_->fallback_windows->Increment();
    }
    store->Append(signature, obs);
  }
  {
    // Journal before the tune stage so even a disabled signature's accepted
    // observations persist (recovery replays the identical state).
    ScopedSpan span(metrics_->stage_journal);
    journal_.Append(journal, signature, obs);
  }
  {
    ScopedSpan span(metrics_->stage_tune);
    const bool was_disabled = state->disabled;
    tune_.Apply(obs, state);
    if (!was_disabled && state->disabled) {
      metrics_->guardrail_trips->Increment();
    }
  }
  return TelemetryVerdict::kAccept;
}

}  // namespace rockhopper::core
