#ifndef ROCKHOPPER_CORE_TRACING_H_
#define ROCKHOPPER_CORE_TRACING_H_

#include <chrono>

#include "common/metrics.h"

namespace rockhopper::core {

/// RAII latency span: measures the enclosing scope on the steady clock and
/// observes the elapsed seconds into `histogram` at destruction. A null
/// histogram — or metrics globally disabled — short-circuits both clock
/// reads, so a disabled span costs one branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(common::Histogram* histogram)
      : histogram_(common::MetricsEnabled() ? histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (histogram_ == nullptr) return;
    histogram_->Observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  common::Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Every instrument of the tuning service, resolved once from
/// MetricsRegistry::Default() and shared process-wide — the hot path bumps
/// pre-resolved pointers, never touching the registry. The full catalogue
/// (names, labels, semantics) is documented in docs/METRICS.md.
struct ServiceMetrics {
  /// The process-wide instance (Meyers singleton; thread-safe init).
  static ServiceMetrics& Get();

  // --- service façade -----------------------------------------------------
  common::Counter* queries_started;    ///< OnQueryStart proposals handed out
  common::Counter* queries_ended;      ///< OnQueryEnd deliveries received
  common::Counter* proposals_tuner;    ///< proposals from the live tuner
  common::Counter* proposals_fallback; ///< defaults: failure-backoff window
  common::Counter* proposals_disabled; ///< defaults: guardrail-disabled

  // --- ingest pipeline ----------------------------------------------------
  /// rockhopper_telemetry_events_total{verdict=...}, one per verdict.
  common::Counter* telemetry_accepted;
  common::Counter* telemetry_rejected_nonfinite;
  common::Counter* telemetry_rejected_nonpositive;
  common::Counter* telemetry_rejected_duplicate;
  common::Counter* telemetry_rejected_config;
  /// Deliveries swallowed by the simulation's injected ingest fault
  /// (verdict="sim_dropped"); always registered, only ever incremented in
  /// ROCKHOPPER_SIM builds with Buggify enabled.
  common::Counter* telemetry_sim_dropped;
  common::Counter* failures_ingested;   ///< accepted events with failed=true
  common::Counter* guardrail_trips;     ///< signatures newly disabled
  common::Counter* fallback_windows;    ///< failure-backoff windows opened
  /// rockhopper_ingest_stage_seconds{stage=...}: per-stage latency.
  common::Histogram* stage_sanitize;
  common::Histogram* stage_failure_policy;
  common::Histogram* stage_journal;
  common::Histogram* stage_tune;
  /// Whole-pipeline latency, every delivery (rejects included).
  common::Histogram* ingest_seconds;

  // --- journal ------------------------------------------------------------
  common::Counter* journal_appends;     ///< records persisted
  common::Counter* journal_errors;      ///< records lost to write errors
  common::Histogram* journal_flush_seconds;  ///< write+flush latency
  common::Histogram* journal_batch_size;     ///< group-commit batch sizes

  // --- tiered state layer -------------------------------------------------
  common::Gauge* state_resident_signatures;  ///< signatures in the hot tier
  common::Gauge* state_resident_bytes;       ///< hot-tier footprint (approx)
  common::Counter* state_evictions;          ///< states spilled to cold tier
  common::Counter* state_faultins;           ///< cold states restored
  common::Histogram* state_faultin_seconds;  ///< fault-in (decode) latency
  common::Counter* state_sweep_evictions;    ///< idle-TTL sweeper evictions
  common::Counter* state_clean_evictions;    ///< evictions that skipped save
  common::Gauge* obs_resident_bytes;         ///< observation-store footprint
  common::Counter* obs_truncated;            ///< rows dropped by retention
  common::Counter* compress_encodes;         ///< cold artifacts compressed
  common::Histogram* compress_ratio;         ///< compressed/raw size ratio
  common::Histogram* compress_seconds;       ///< codec (encode) latency
  common::Counter* checkpoint_deltas_total;  ///< incremental delta segments
  common::Histogram* checkpoint_bytes;       ///< bytes written per checkpoint
  common::Counter* checkpoints_total;        ///< journal compactions finished
  common::Histogram* checkpoint_seconds;     ///< whole-compaction latency

  // Transfer tier (embedding ANN index + zero-execution warm starts).
  common::Gauge* transfer_index_size;        ///< signatures in the ANN index
  common::Counter* transfer_inserts;         ///< embeddings registered
  common::Counter* transfer_rejected_embeddings;  ///< non-finite, refused
  common::Histogram* transfer_insert_seconds;     ///< staged-batch flush time
  common::Histogram* transfer_search_seconds;     ///< k-NN query latency
  common::Counter* transfer_hits;            ///< cold starts warm-started
  common::Counter* transfer_misses;          ///< cold starts with no usable
                                             ///< neighbor (defaults used)
  common::Counter* transfer_seeded_observations;  ///< borrowed observations
  common::Histogram* transfer_recall_probe;  ///< sampled recall@k vs ExactKnn

  // --- network front end & admission control (src/net) ---------------------
  common::Gauge* net_connections;            ///< currently open connections
  common::Counter* net_connections_accepted; ///< lifetime accepts
  common::Counter* net_rx_bytes;             ///< payload+header bytes read
  common::Counter* net_tx_bytes;             ///< response bytes written
  /// rockhopper_net_requests_total{verb=...}: decoded request frames.
  common::Counter* net_requests_observe;
  common::Counter* net_requests_propose;
  common::Counter* net_requests_metrics;
  common::Counter* net_requests_health;
  common::Counter* net_requests_admin;
  /// rockhopper_net_admin_unauthorized_total: Admin frames rejected by the
  /// token handshake (missing server token or mismatched client token).
  common::Counter* net_admin_unauthorized;
  /// rockhopper_net_frame_errors_total{kind=...}: typed framing failures.
  common::Counter* net_bad_crc;       ///< payload CRC mismatch (recoverable)
  common::Counter* net_bad_frame;     ///< magic/version/length (fatal)
  common::Counter* net_bad_payload;   ///< verb payload undecodable
  /// rockhopper_net_shed_total{layer=...}: kBusy responses by shedding layer.
  common::Counter* net_shed_tenant;   ///< per-tenant token bucket
  common::Counter* net_shed_global;   ///< Ratekeeper-style global controller
  common::Histogram* net_request_seconds;  ///< service call, server side
  common::Histogram* net_batch_size;       ///< observes per service batch
  common::Gauge* net_queue_depth;          ///< in-flight decoded requests
  common::Gauge* admission_rate;           ///< admitted fraction in [0, 1]

 private:
  ServiceMetrics();
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_TRACING_H_
