#ifndef ROCKHOPPER_SPARKSIM_FAULT_H_
#define ROCKHOPPER_SPARKSIM_FAULT_H_

#include <cstdint>

#include "common/rng.h"
#include "sparksim/cost_model.h"

namespace rockhopper::sparksim {

/// How a simulated execution failed (ExecutionResult::failure). Failure is
/// first-class in the production loop the paper describes: "insufficient
/// allocations can lead to ... failures" (§4.3), so the tuner must be able
/// to tell *that* and ideally *why* a run died.
enum class FailureKind : uint8_t {
  kNone = 0,
  kBroadcastOom,  ///< fatal broadcast build side (cost-model OOM, pre-existing)
  kExecutorOom,   ///< executor killed for exceeding its memory allocation
  kExecutorLoss,  ///< executor lost (spot reclaim / node failure), no headroom
  kTimeout,       ///< watchdog killed a hung job
};

/// Short name like "ExecutorOom".
const char* FailureKindName(FailureKind kind);

/// Knobs of the seeded fault-injection model, layered on top of the Eq. (8)
/// noise model. Job-level faults are config-dependent where production
/// failures are: OOM probability rises as executor memory shrinks relative
/// to per-task shuffle pressure. Telemetry faults model the event-delivery
/// pathologies of a real telemetry bus: dropped, duplicated, reordered, and
/// corrupted OnQueryEnd events.
struct FaultParams {
  // --- job-level faults ---
  /// Baseline per-execution probability of an executor OOM kill at ample
  /// memory headroom.
  double oom_base_rate = 0.0;
  /// Slope of the OOM probability in memory pressure above 1, where pressure
  /// is per-reduce-task shuffle bytes over usable per-task executor memory.
  /// Starving spark.executor.memory under heavy shuffles makes jobs die, not
  /// just spill.
  double oom_pressure_slope = 0.0;
  /// Per-execution probability that one executor is lost mid-job (spot
  /// reclaim, node crash). With scheduling headroom the job survives with a
  /// retry-amplified runtime; at <= `loss_fatal_instances` executors the job
  /// fails outright.
  double executor_loss_rate = 0.0;
  double loss_fatal_instances = 2.0;
  /// Per-execution probability of a hang killed by the cluster watchdog.
  double timeout_rate = 0.0;
  /// Observed runtime multiple burned before the watchdog fires.
  double timeout_multiple = 10.0;
  /// Probability of a recoverable task-retry wave (stragglers, speculative
  /// re-execution) amplifying runtime without failing the job.
  double task_retry_rate = 0.0;
  double task_retry_multiplier = 1.6;

  // --- telemetry corruption ---
  double drop_rate = 0.0;       ///< OnQueryEnd never delivered
  double duplicate_rate = 0.0;  ///< event delivered twice
  double reorder_rate = 0.0;    ///< event delivered late / out of order
  double corrupt_rate = 0.0;    ///< runtime replaced by NaN / zero / negative

  /// No faults at all — the default; the simulator behaves exactly as
  /// before this model existed.
  static FaultParams None() { return {}; }
  /// The chaos preset used by the integration tests, the simulation
  /// harness and `rockhopper serve --chaos`: >= 5% job-failure rate at
  /// defaults plus every telemetry corruption mode.
  static FaultParams Production();

  bool InjectsJobFaults() const {
    return oom_base_rate > 0.0 || oom_pressure_slope > 0.0 ||
           executor_loss_rate > 0.0 || timeout_rate > 0.0 ||
           task_retry_rate > 0.0;
  }
  bool CorruptsTelemetry() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           corrupt_rate > 0.0;
  }
};

/// The job-level fault drawn for one execution.
struct JobFault {
  FailureKind kind = FailureKind::kNone;
  bool failed = false;
  /// Multiplier applied to the observed runtime (retry amplification, time
  /// burned before a fatal fault).
  double runtime_multiplier = 1.0;
};

/// The telemetry fault drawn for one OnQueryEnd event.
struct TelemetryFault {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  enum class Corruption : uint8_t { kNone, kNaN, kZero, kNegative };
  Corruption corruption = Corruption::kNone;

  bool any() const {
    return drop || duplicate || reorder || corruption != Corruption::kNone;
  }
};

/// Deterministic, seeded fault injector. All draws come from a private RNG
/// stream, so a fixed seed replays an identical fault trace regardless of
/// how the surrounding noise model consumes randomness.
class FaultModel {
 public:
  FaultModel(FaultParams params, uint64_t seed, CostModelParams cost_params = {},
             PoolSpec pool = {})
      : params_(params), cost_params_(cost_params), pool_(pool), rng_(seed) {}

  /// The config-dependent OOM probability for one execution (exposed for
  /// tests and the fault-model docs).
  double OomProbability(const EffectiveConfig& config,
                        const ExecutionMetrics& metrics) const;

  /// Draws the job-level fault for one execution of `config` that produced
  /// `metrics`. Deterministic given the model's seed and call sequence.
  JobFault DrawJobFault(const EffectiveConfig& config,
                        const ExecutionMetrics& metrics);

  /// Draws the delivery fault for one telemetry event.
  TelemetryFault DrawTelemetryFault();

  /// Applies a runtime corruption mode to `runtime`.
  static double CorruptRuntime(double runtime, TelemetryFault::Corruption mode);

  const FaultParams& params() const { return params_; }

 private:
  FaultParams params_;
  CostModelParams cost_params_;
  PoolSpec pool_;
  common::Rng rng_;
};

}  // namespace rockhopper::sparksim

#endif  // ROCKHOPPER_SPARKSIM_FAULT_H_
