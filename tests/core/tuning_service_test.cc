#include "core/tuning_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/checkpoint.h"
#include "core/journal.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"

namespace rockhopper::core {
namespace {

class TuningServiceTest : public ::testing::Test {
 protected:
  TuningServiceTest() : space_(sparksim::QueryLevelSpace()) {}

  TuningServiceOptions FastOptions() {
    TuningServiceOptions options;
    options.guardrail.min_iterations = 10;
    options.centroid.num_candidates = 8;
    return options;
  }

  /// A journal path unique to this process and test; the destructor
  /// removes its whole chain (segments, checkpoint, deltas).
  std::string JournalPath(const std::string& suffix = ".log") {
    journals_.push_back(
        (std::filesystem::temp_directory_path() /
         ("rockhopper_svc_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          suffix))
            .string());
    RemoveChain(journals_.back());
    return journals_.back();
  }
  ~TuningServiceTest() override {
    for (const std::string& path : journals_) RemoveChain(path);
  }

  static void RemoveChain(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(CheckpointPath(path), ec);
    if (auto deltas = ListCheckpointDeltas(path); deltas.ok()) {
      for (const auto& [k, delta] : *deltas) std::filesystem::remove(delta, ec);
    }
    if (auto segments = ObservationJournal::ListSegments(path);
        segments.ok()) {
      for (const auto& [k, segment] : *segments) {
        std::filesystem::remove(segment, ec);
      }
    }
  }

  /// Writes `rows` of `signature` to a fresh journal at `path` — how a twin
  /// is handed a history to recover.
  static void WriteJournal(const std::string& path, uint64_t signature,
                           const ObservationWindow& rows) {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const Observation& row : rows) {
      ASSERT_TRUE(journal->Append(signature, row).ok());
    }
    ASSERT_TRUE(journal->Close().ok());
  }

  sparksim::ConfigSpace space_;
  std::vector<std::string> journals_;
};

TEST_F(TuningServiceTest, FirstStartReturnsValidConfig) {
  TuningService service(space_, nullptr, FastOptions(), 1);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(1);
  const sparksim::ConfigVector config = service.OnQueryStart(plan, 1e9);
  EXPECT_TRUE(space_.Validate(config).ok());
  EXPECT_EQ(service.NumSignatures(), 1u);
}

TEST_F(TuningServiceTest, SignaturesTrackedIndependently) {
  TuningService service(space_, nullptr, FastOptions(), 2);
  const sparksim::QueryPlan p1 = sparksim::TpchPlan(1);
  const sparksim::QueryPlan p2 = sparksim::TpchPlan(2);
  (void)service.OnQueryStart(p1, 1e9);
  (void)service.OnQueryStart(p2, 1e9);
  EXPECT_EQ(service.NumSignatures(), 2u);
  service.OnQueryEnd(
      p1, QueryEndEvent::FromRun(space_.Defaults(), 1e9, 100.0));
  EXPECT_EQ(service.IterationCount(p1.Signature()), 1u);
  EXPECT_EQ(service.IterationCount(p2.Signature()), 0u);
}

TEST_F(TuningServiceTest, ObservationsRecorded) {
  TuningService service(space_, nullptr, FastOptions(), 3);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(3);
  for (int i = 0; i < 5; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1e9);
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1e9, 50.0 - i));
  }
  EXPECT_EQ(service.observations().Count(plan.Signature()), 5u);
  EXPECT_TRUE(service.IsTuningEnabled(plan.Signature()));
}

TEST_F(TuningServiceTest, GuardrailDisablesRegressingQuery) {
  TuningServiceOptions options = FastOptions();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  TuningService service(space_, nullptr, options, 4);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(4);
  // Report runtimes that regress hard regardless of config.
  for (int i = 0; i < 40; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, 10.0 + 5.0 * i));
  }
  EXPECT_FALSE(service.IsTuningEnabled(plan.Signature()));
  EXPECT_EQ(service.NumDisabled(), 1u);
  // Once disabled, starts return the defaults.
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
}

TEST_F(TuningServiceTest, GuardrailCanBeDisabledByOption) {
  TuningServiceOptions options = FastOptions();
  options.enable_guardrail = false;
  TuningService service(space_, nullptr, options, 5);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(5);
  for (int i = 0; i < 40; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, 10.0 + 5.0 * i));
  }
  EXPECT_TRUE(service.IsTuningEnabled(plan.Signature()));
  EXPECT_EQ(service.NumDisabled(), 0u);
}

TEST_F(TuningServiceTest, ImprovesQueryOnSimulator) {
  // End-to-end sanity: tuning a TPC-H-like query on the noiseless simulator
  // should beat the defaults after some iterations.
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::None();
  sparksim::SparkSimulator sim(sim_options);
  TuningService service(space_, nullptr, FastOptions(), 6);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(7);
  const double default_runtime =
      sim.ExecuteQuery(plan, space_.Defaults(), 1.0).noise_free_seconds;
  double last_runtime = default_runtime;
  for (int i = 0; i < 60; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    const sparksim::ExecutionResult r = sim.ExecuteQuery(plan, c, 1.0);
    service.OnQueryEnd(
        plan, QueryEndEvent::FromRun(c, r.input_bytes, r.runtime_seconds));
    last_runtime = r.noise_free_seconds;
  }
  EXPECT_LE(last_runtime, default_runtime * 1.05);
}

TEST_F(TuningServiceTest, AppCacheMissReturnsAppDefaults) {
  TuningService service(space_, nullptr, FastOptions(), 7);
  EXPECT_EQ(service.OnApplicationStart("unknown-artifact"),
            sparksim::AppLevelSpace().Defaults());
}

TEST_F(TuningServiceTest, PrecomputeAppConfigPopulatesCache) {
  TuningService service(space_, nullptr, FastOptions(), 8);
  AppQueryContext ctx;
  ctx.centroid = space_.Defaults();
  // Prefer more executors, unconditionally.
  ctx.score = [](const sparksim::ConfigVector& app,
                 const sparksim::ConfigVector& /*query*/) {
    return app[0];
  };
  service.PrecomputeAppConfig("notebook-42", {ctx});
  EXPECT_EQ(service.app_cache().size(), 1u);
  const sparksim::ConfigVector cached =
      service.OnApplicationStart("notebook-42");
  EXPECT_GE(cached[0], sparksim::AppLevelSpace().Defaults()[0]);
}

TEST_F(TuningServiceTest, RecoveredHistoryRestoresIterationCount) {
  // First service: tune for a while, persist the event log.
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sparksim::SparkSimulator sim(sim_options);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(9);
  TuningService first(space_, nullptr, FastOptions(), 10);
  for (int i = 0; i < 20; ++i) {
    const sparksim::ConfigVector c = first.OnQueryStart(plan, 1.0);
    const sparksim::ExecutionResult r = sim.ExecuteQuery(plan, c, 1.0);
    first.OnQueryEnd(
        plan, QueryEndEvent::FromRun(c, r.input_bytes, r.runtime_seconds));
  }
  // Second service: recover the stored history and keep tuning.
  const std::string path = JournalPath();
  WriteJournal(path, plan.Signature(),
               first.observations().History(plan.Signature()));
  TuningService second(space_, nullptr, FastOptions(), 11);
  ASSERT_TRUE(second.RecoverFromCheckpoint(path, {plan}).ok());
  EXPECT_EQ(second.IterationCount(plan.Signature()), 20u);
  EXPECT_TRUE(second.IsTuningEnabled(plan.Signature()));
  const sparksim::ConfigVector next = second.OnQueryStart(plan, 1.0);
  EXPECT_TRUE(space_.Validate(next).ok());
}

TEST_F(TuningServiceTest, RecoveredHistoryReappliesGuardrail) {
  TuningServiceOptions options = FastOptions();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  TuningService service(space_, nullptr, options, 12);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(10);
  ObservationWindow regressing;
  for (int i = 0; i < 40; ++i) {
    Observation o;
    o.config = space_.Defaults();
    o.data_size = 1.0;
    o.runtime = 10.0 + 5.0 * i;
    o.iteration = i;
    regressing.push_back(o);
  }
  const std::string path = JournalPath();
  WriteJournal(path, plan.Signature(), regressing);
  ASSERT_TRUE(service.RecoverFromCheckpoint(path, {plan}).ok());
  EXPECT_FALSE(service.IsTuningEnabled(plan.Signature()));
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
}

TEST_F(TuningServiceTest, ExplainQueryDescribesState) {
  TuningService service(space_, nullptr, FastOptions(), 13);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(11);
  EXPECT_EQ(service.ExplainQuery(plan.Signature()).status().code(),
            StatusCode::kNotFound);
  for (int i = 0; i < 5; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, 50.0 - i));
  }
  Result<std::string> explanation = service.ExplainQuery(plan.Signature());
  ASSERT_TRUE(explanation.ok());
  EXPECT_NE(explanation->find("centroid"), std::string::npos);
  EXPECT_NE(explanation->find(sparksim::kShufflePartitions),
            std::string::npos);
  EXPECT_NE(explanation->find("candidates scored"), std::string::npos);
}

TEST_F(TuningServiceTest, ExplainQueryReportsDisabledState) {
  TuningServiceOptions options = FastOptions();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  TuningService service(space_, nullptr, options, 14);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(12);
  for (int i = 0; i < 40; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, 10.0 + 5.0 * i));
  }
  Result<std::string> explanation = service.ExplainQuery(plan.Signature());
  ASSERT_TRUE(explanation.ok());
  EXPECT_NE(explanation->find("DISABLED"), std::string::npos);
}

TEST_F(TuningServiceTest, SignatureTransferSeedsFromSimilarQuery) {
  TuningServiceOptions options = FastOptions();
  options.transfer.enabled = true;
  options.enable_guardrail = false;
  TuningService service(space_, nullptr, options, 15);

  // Tune query A away from the defaults with fabricated feedback: small
  // configs look fast, so the centroid drifts down.
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(13);
  for (int i = 0; i < 25; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan_a, 1.0);
    const double runtime = 10.0 + 100.0 * space_.Normalize(c)[2];
    service.OnQueryEnd(plan_a, QueryEndEvent::FromRun(c, 1.0, runtime));
  }
  // Query B: the same plan with slightly perturbed cardinalities — a new
  // signature but a near-identical embedding.
  sparksim::QueryPlan plan_b = plan_a;
  plan_b.mutable_node(0).est_output_rows *= 64.0;  // re-hashes the signature
  ASSERT_NE(plan_b.Signature(), plan_a.Signature());

  const sparksim::ConfigVector b_first = service.OnQueryStart(plan_b, 1.0);
  // B's first proposal should start near A's learned centroid, not the
  // defaults: its shuffle.partitions must be well below the default.
  Result<std::string> a_explain = service.ExplainQuery(plan_a.Signature());
  ASSERT_TRUE(a_explain.ok());
  EXPECT_LT(space_.Normalize(b_first)[2],
            space_.Normalize(space_.Defaults())[2]);

  // Without transfer, a fresh service starts B at the defaults.
  TuningServiceOptions cold_options = FastOptions();
  cold_options.transfer.enabled = false;
  TuningService cold(space_, nullptr, cold_options, 16);
  const sparksim::ConfigVector cold_first = cold.OnQueryStart(plan_b, 1.0);
  EXPECT_NEAR(space_.Normalize(cold_first)[2],
              space_.Normalize(space_.Defaults())[2], 0.06);
}

TEST_F(TuningServiceTest, SignatureTransferIgnoresDistantQueries) {
  TuningServiceOptions options = FastOptions();
  options.transfer.enabled = true;
  options.transfer.max_distance = 1e-6;  // effectively disabled by radius
  TuningService service(space_, nullptr, options, 17);
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(14);
  for (int i = 0; i < 10; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan_a, 1.0);
    service.OnQueryEnd(
        plan_a,
        QueryEndEvent::FromRun(c, 1.0, 10.0 + 100.0 * space_.Normalize(c)[2]));
  }
  const sparksim::QueryPlan plan_b = sparksim::TpcdsPlan(50);  // unrelated
  const sparksim::ConfigVector b_first = service.OnQueryStart(plan_b, 1.0);
  EXPECT_NEAR(space_.Normalize(b_first)[2],
              space_.Normalize(space_.Defaults())[2], 0.06);
}

TEST_F(TuningServiceTest, PrecomputeWithNoQueriesIsNoOp) {
  TuningService service(space_, nullptr, FastOptions(), 9);
  service.PrecomputeAppConfig("empty", {});
  EXPECT_EQ(service.app_cache().size(), 0u);
}

// --- failure-aware pipeline -------------------------------------------------

QueryEndEvent Event(const sparksim::ConfigVector& config, double runtime,
                    uint64_t event_id = 0) {
  QueryEndEvent e;
  e.event_id = event_id;
  e.config = config;
  e.data_size = 1.0;
  e.runtime = runtime;
  return e;
}

TEST_F(TuningServiceTest, OnQueryEndRejectsGarbageTelemetry) {
  TuningService service(space_, nullptr, FastOptions(), 20);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(1);
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  service.OnQueryEnd(plan, Event(c, std::numeric_limits<double>::quiet_NaN()));
  service.OnQueryEnd(plan, Event(c, std::numeric_limits<double>::infinity()));
  service.OnQueryEnd(plan, Event(c, 0.0));
  service.OnQueryEnd(plan, Event(c, -4.0));
  EXPECT_EQ(service.IterationCount(plan.Signature()), 0u);
  EXPECT_EQ(service.telemetry_stats().total_rejected(), 4u);
  EXPECT_EQ(service.telemetry_stats().rejected_nonfinite, 2u);
  EXPECT_EQ(service.telemetry_stats().rejected_nonpositive, 2u);
  // Good telemetry still flows.
  service.OnQueryEnd(plan, Event(c, 30.0));
  EXPECT_EQ(service.IterationCount(plan.Signature()), 1u);
}

TEST_F(TuningServiceTest, FromRunEventsAreAlsoSanitized) {
  // QueryEndEvent::FromRun is the migration path for the deprecated
  // trusted-telemetry overload; its events must pass through the same
  // sanitization as every other delivery.
  TuningService service(space_, nullptr, FastOptions(), 21);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(2);
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  service.OnQueryEnd(
      plan, QueryEndEvent::FromRun(
                c, 1.0, std::numeric_limits<double>::quiet_NaN()));
  service.OnQueryEnd(plan, QueryEndEvent::FromRun(c, 1.0, -1.0));
  EXPECT_EQ(service.IterationCount(plan.Signature()), 0u);
}

TEST_F(TuningServiceTest, DuplicateDeliveriesCountOnce) {
  TuningService service(space_, nullptr, FastOptions(), 22);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(3);
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  const QueryEndEvent e = Event(c, 25.0, /*event_id=*/501);
  service.OnQueryEnd(plan, e);
  service.OnQueryEnd(plan, e);  // the bus delivered it twice
  service.OnQueryEnd(plan, e);  // ...and a third time
  EXPECT_EQ(service.IterationCount(plan.Signature()), 1u);
  EXPECT_EQ(service.telemetry_stats().rejected_duplicate, 2u);
}

TEST_F(TuningServiceTest, FailedRunGetsPenalizedImputation) {
  TuningServiceOptions options = FastOptions();
  options.failure_policy.penalty_multiplier = 3.0;
  TuningService service(space_, nullptr, options, 23);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(4);
  // Build a healthy history with ~40s runtimes.
  for (int i = 0; i < 6; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, Event(c, 40.0));
  }
  // A failed run with no usable runtime.
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  QueryEndEvent failed = Event(c, 0.0);
  failed.failed = true;
  failed.failure = sparksim::FailureKind::kExecutorOom;
  service.OnQueryEnd(plan, failed);
  const ObservationWindow history =
      service.observations().History(plan.Signature());
  ASSERT_EQ(history.size(), 7u);
  EXPECT_TRUE(history.back().failed);
  // Imputed: penalty x median successful runtime = 3 x 40.
  EXPECT_NEAR(history.back().runtime, 120.0, 1e-9);
  EXPECT_EQ(service.telemetry_stats().failures_ingested, 1u);
}

TEST_F(TuningServiceTest, FailureStreakTriggersDefaultsFallbackWithBackoff) {
  TuningServiceOptions options = FastOptions();
  options.failure_policy.fallback_after = 2;
  options.failure_policy.initial_backoff = 1;
  options.guardrail.max_failure_strikes = 100;  // keep the guardrail out
  TuningService service(space_, nullptr, options, 24);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(5);

  auto fail_once = [&] {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    QueryEndEvent e = Event(c, 10.0);
    e.failed = true;
    service.OnQueryEnd(plan, e);
  };
  auto succeed_once = [&] {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, Event(c, 30.0));
  };

  succeed_once();
  fail_once();
  fail_once();  // streak hits fallback_after = 2
  // The next start must fall back to the defaults (backoff width 1).
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
  Result<std::string> why = service.ExplainQuery(plan.Signature());
  ASSERT_TRUE(why.ok());
  EXPECT_NE(why->find("fallback"), std::string::npos);
  // The fallback window is consumed; tuning resumes...
  succeed_once();
  // ...and a later streak backs off twice as wide.
  fail_once();
  fail_once();
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
}

TEST_F(TuningServiceTest, PersistentFailuresDisableViaGuardrail) {
  TuningService service(space_, nullptr, FastOptions(), 25);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(6);
  for (int i = 0; i < 10; ++i) {
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    QueryEndEvent e = Event(c, 10.0);
    e.failed = true;
    service.OnQueryEnd(plan, e);
  }
  EXPECT_FALSE(service.IsTuningEnabled(plan.Signature()));
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
}

TEST_F(TuningServiceTest, ExplainQueryReportsTelemetryCounters) {
  TuningService service(space_, nullptr, FastOptions(), 26);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(7);
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  service.OnQueryEnd(plan, Event(c, 30.0));
  service.OnQueryEnd(plan, Event(c, std::numeric_limits<double>::quiet_NaN()));
  Result<std::string> explanation = service.ExplainQuery(plan.Signature());
  ASSERT_TRUE(explanation.ok());
  EXPECT_NE(explanation->find("telemetry"), std::string::npos);
  EXPECT_NE(explanation->find("non-finite"), std::string::npos);
}

TEST_F(TuningServiceTest, JournalRecordsAcceptedObservationsOnly) {
  const std::string path = JournalPath();
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService service(space_, nullptr, FastOptions(), 27);
    service.AttachJournal(&*journal);
    const sparksim::QueryPlan plan = sparksim::TpchPlan(8);
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, Event(c, 30.0));
    service.OnQueryEnd(plan,
                       Event(c, std::numeric_limits<double>::quiet_NaN()));
    service.OnQueryEnd(plan, Event(c, 31.0));
    EXPECT_EQ(service.journal_errors(), 0u);
  }
  Result<JournalChain> recovered = RecoverJournalChain(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_records, 2u);  // the NaN never made it in
}

TEST_F(TuningServiceTest, JournalErrorsKeepWriterFailuresAfterShutdown) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Result<ObservationJournal> journal = ObservationJournal::Open("/dev/full");
  if (!journal.ok()) {
    GTEST_SKIP() << "/dev/full refused: " << journal.status().ToString();
  }
  ASSERT_TRUE(journal->StartGroupCommit({}).ok());
  TuningService service(space_, nullptr, FastOptions(), 32);
  service.AttachJournal(&*journal);
  const sparksim::QueryPlan plan = sparksim::TpchPlan(8);
  const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
  service.OnQueryEnd(plan, Event(c, 30.0));
  EXPECT_FALSE(service.Shutdown().ok());
  // The group-commit writer failed the record; detaching the journal must
  // not drop its count.
  const uint64_t errors = service.journal_errors();
  EXPECT_GT(errors, 0u);
  // A second Shutdown has no journal left and must not count it again.
  EXPECT_TRUE(service.Shutdown().ok());
  EXPECT_EQ(service.journal_errors(), errors);
}

TEST_F(TuningServiceTest, RecoverFromCheckpointRestoresBareJournal) {
  const std::string path = JournalPath();
  const sparksim::QueryPlan plan_a = sparksim::TpchPlan(9);
  const sparksim::QueryPlan plan_b = sparksim::TpchPlan(10);
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService service(space_, nullptr, FastOptions(), 28);
    service.AttachJournal(&*journal);
    for (int i = 0; i < 12; ++i) {
      const sparksim::ConfigVector ca = service.OnQueryStart(plan_a, 1.0);
      service.OnQueryEnd(plan_a, Event(ca, 40.0 - i));
      if (i < 4) {
        const sparksim::ConfigVector cb = service.OnQueryStart(plan_b, 1.0);
        service.OnQueryEnd(plan_b, Event(cb, 60.0));
      }
    }
  }
  TuningService restarted(space_, nullptr, FastOptions(), 29);
  Result<TuningService::RecoveryReport> report =
      restarted.RecoverFromCheckpoint(path, {plan_a, plan_b});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->journal_clean);
  EXPECT_EQ(report->signatures_restored, 2u);
  EXPECT_EQ(report->observations_replayed, 16u);
  EXPECT_EQ(report->observations_dropped, 0u);
  EXPECT_EQ(report->unknown_signatures, 0u);
  EXPECT_EQ(restarted.IterationCount(plan_a.Signature()), 12u);
  EXPECT_EQ(restarted.IterationCount(plan_b.Signature()), 4u);
  EXPECT_TRUE(space_.Validate(restarted.OnQueryStart(plan_a, 1.0)).ok());
}

TEST_F(TuningServiceTest, RecoverFromCheckpointCountsUnknownSignatures) {
  const std::string path = JournalPath();
  const sparksim::QueryPlan plan = sparksim::TpchPlan(11);
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService service(space_, nullptr, FastOptions(), 30);
    service.AttachJournal(&*journal);
    const sparksim::ConfigVector c = service.OnQueryStart(plan, 1.0);
    service.OnQueryEnd(plan, Event(c, 30.0));
  }
  TuningService restarted(space_, nullptr, FastOptions(), 31);
  // Recover with a plan set that does not contain the journaled signature.
  Result<TuningService::RecoveryReport> report =
      restarted.RecoverFromCheckpoint(path, {sparksim::TpchPlan(12)});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->signatures_restored, 0u);
  EXPECT_EQ(report->unknown_signatures, 1u);
}

TEST_F(TuningServiceTest, RecoverySkipsRowsIngestionWouldRejectWithCount) {
  // Well-formed records whose values ingestion would have refused (a
  // foreign or hand-written journal): both recovery modes skip and count
  // them through the one history loop, and keep the rest in order.
  const std::string path = JournalPath();
  const sparksim::QueryPlan plan = sparksim::TpchPlan(9);
  ObservationWindow rows;
  const auto row = [&](double data_size, double runtime, bool failed) {
    Observation o;
    o.config = space_.Defaults();
    o.data_size = data_size;
    o.runtime = runtime;
    o.failed = failed;
    o.iteration = static_cast<int>(rows.size());
    rows.push_back(o);
  };
  row(1.0, 50.0, false);                                      // good
  row(1.0, std::numeric_limits<double>::quiet_NaN(), false);  // NaN runtime
  row(1.0, -3.0, false);                                      // negative
  row(0.0, 40.0, false);                                      // zero size
  row(std::numeric_limits<double>::infinity(), 40.0, false);  // inf size
  row(1.0, 45.0, false);
  rows.back().config.pop_back();                              // wrong width
  row(1.0, 45.0, true);                                       // good, failed
  WriteJournal(path, plan.Signature(), rows);

  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    TuningService service(space_, nullptr, FastOptions(), 32);
    TuningService::RecoveryOptions options;
    options.lazy = lazy;
    Result<TuningService::RecoveryReport> report =
        service.RecoverFromCheckpoint(path, {plan}, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->journal_clean);  // every record parses
    EXPECT_EQ(report->signatures_restored, 1u);
    EXPECT_EQ(report->observations_replayed, 2u);
    EXPECT_EQ(report->observations_dropped, 5u);
    const std::vector<Observation>& kept =
        service.observations().History(plan.Signature());
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_DOUBLE_EQ(kept[0].runtime, 50.0);
    EXPECT_FALSE(kept[0].failed);
    EXPECT_EQ(kept[1].iteration, 6);
    EXPECT_TRUE(kept[1].failed);
    EXPECT_TRUE(space_.Validate(service.OnQueryStart(plan, 1.0)).ok());
  }
}

TEST_F(TuningServiceTest, EagerRecoveryUnderRetentionReplaysWholeHistory) {
  // A retention window bounds the in-memory store, not the replay: the
  // guardrail must see all 40 regressing rows, where the last 4 alone
  // would not reach min_iterations and leave tuning enabled.
  TuningServiceOptions options = FastOptions();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  options.state_tier.observation_window = 4;
  const sparksim::QueryPlan plan = sparksim::TpchPlan(10);
  ObservationWindow regressing;
  for (int i = 0; i < 40; ++i) {
    Observation o;
    o.config = space_.Defaults();
    o.data_size = 1.0;
    o.runtime = 10.0 + 5.0 * i;
    o.iteration = i;
    regressing.push_back(o);
  }
  const std::string path = JournalPath();
  WriteJournal(path, plan.Signature(), regressing);

  TuningService service(space_, nullptr, options, 33);
  Result<TuningService::RecoveryReport> report =
      service.RecoverFromCheckpoint(path, {plan});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->observations_replayed, 40u);
  EXPECT_EQ(service.observations().History(plan.Signature()).size(), 4u);
  EXPECT_EQ(service.observations().TotalAppended(plan.Signature()), 40u);
  EXPECT_FALSE(service.IsTuningEnabled(plan.Signature()));
  EXPECT_EQ(service.OnQueryStart(plan, 1.0), space_.Defaults());
}

// --- the state tier every service has --------------------------------------

/// One start/end per plan per round; plan `regressing` (if any) slows down
/// every round so the guardrail eventually disables it.
void Drive(TuningService* service,
           const std::vector<sparksim::QueryPlan>& plans, int rounds,
           int first_round = 0,
           const sparksim::QueryPlan* regressing = nullptr) {
  for (int round = first_round; round < first_round + rounds; ++round) {
    for (const sparksim::QueryPlan& plan : plans) {
      const sparksim::ConfigVector c = service->OnQueryStart(plan, 1.0);
      const double runtime =
          &plan == regressing ? 10.0 + 5.0 * round : 40.0 - 0.5 * round;
      service->OnQueryEnd(plan, Event(c, runtime));
    }
  }
}

TEST_F(TuningServiceTest, DefaultServiceRecoversLazily) {
  const std::string path = JournalPath();
  const std::vector<sparksim::QueryPlan> plans = {sparksim::TpchPlan(3),
                                                  sparksim::TpchPlan(4)};
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService live(space_, nullptr, FastOptions(), 40);
    live.AttachJournal(&*journal);
    Drive(&live, plans, 12);
  }
  // No AttachStateTier: lazy recovery leaves replay tombstones in the tier
  // every service is constructed with.
  TuningService lazy(space_, nullptr, FastOptions(), 41);
  TuningService::RecoveryOptions options;
  options.lazy = true;
  Result<TuningService::RecoveryReport> report =
      lazy.RecoverFromCheckpoint(path, plans, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->signatures_restored, 2u);
  EXPECT_EQ(report->observations_replayed, 24u);
  EXPECT_EQ(lazy.StateTierStats().cold_signatures, 2u);
  EXPECT_EQ(lazy.StateTierStats().resident_signatures, 0u);

  TuningService eager(space_, nullptr, FastOptions(), 41);
  ASSERT_TRUE(eager.RecoverFromCheckpoint(path, plans).ok());
  for (const sparksim::QueryPlan& plan : plans) {
    EXPECT_EQ(lazy.OnQueryStart(plan, 1.0), eager.OnQueryStart(plan, 1.0));
  }
  EXPECT_EQ(lazy.StateTierStats().faultins, 2u);
  EXPECT_EQ(lazy.StateTierStats().cold_signatures, 0u);
}

TEST_F(TuningServiceTest, DefaultServiceCheckpointsFullImageThenDelta) {
  const std::string path = JournalPath();
  const std::string bare = JournalPath(".bare.log");
  TuningServiceOptions options = FastOptions();
  options.guardrail.min_iterations = 8;
  options.guardrail.max_strikes = 2;
  const std::vector<sparksim::QueryPlan> plans = {sparksim::TpchPlan(5),
                                                  sparksim::TpchPlan(6)};
  const auto read = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService live(space_, nullptr, options, 42);
    live.AttachJournal(&*journal);
    // The bare journal collects the same records uncompacted: the live
    // file's bytes before each checkpoint seals it.
    Drive(&live, plans, 10, 0, &plans[1]);
    std::string records = read(path);
    Result<CheckpointReport> first = live.Checkpoint();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->delta_index, 0u);
    EXPECT_EQ(first->records, 20u);

    Drive(&live, plans, 10, 10, &plans[1]);
    const std::string tail = read(path);
    records += tail.substr(tail.find('\n') + 1);  // without its header
    Result<CheckpointReport> second = live.Checkpoint();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second->delta_index, 1u);
    EXPECT_EQ(second->records, 20u);
    EXPECT_TRUE(std::filesystem::exists(CheckpointDeltaPath(path, 1)));
    ASSERT_TRUE(live.Shutdown().ok());
    std::ofstream(bare, std::ios::binary) << records;
  }

  TuningService from_chain(space_, nullptr, options, 43);
  TuningService from_bare(space_, nullptr, options, 43);
  Result<TuningService::RecoveryReport> chain =
      from_chain.RecoverFromCheckpoint(path, plans);
  Result<TuningService::RecoveryReport> flat =
      from_bare.RecoverFromCheckpoint(bare, plans);
  ASSERT_TRUE(chain.ok() && flat.ok());
  EXPECT_TRUE(chain->journal_clean);
  EXPECT_EQ(chain->observations_replayed, 40u);
  EXPECT_EQ(flat->observations_replayed, 40u);
  EXPECT_GT(chain->checkpoint_seq, 0u);
  // The regressing plan was disabled, so the enabled flags are compared on
  // both outcomes.
  ASSERT_FALSE(from_bare.IsTuningEnabled(plans[1].Signature()));
  for (const sparksim::QueryPlan& plan : plans) {
    EXPECT_EQ(from_chain.IterationCount(plan.Signature()),
              from_bare.IterationCount(plan.Signature()));
    EXPECT_EQ(from_chain.IsTuningEnabled(plan.Signature()),
              from_bare.IsTuningEnabled(plan.Signature()));
    EXPECT_EQ(from_chain.OnQueryStart(plan, 1.0),
              from_bare.OnQueryStart(plan, 1.0));
  }
}

TEST_F(TuningServiceTest, RecoverFromCheckpointReadsRotatedJournal) {
  const std::string path = JournalPath();
  const std::vector<sparksim::QueryPlan> plans = {sparksim::TpchPlan(7),
                                                  sparksim::TpchPlan(8)};
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    TuningService live(space_, nullptr, FastOptions(), 44);
    live.AttachJournal(&*journal);
    Drive(&live, plans, 5);
    ASSERT_TRUE(journal->Rotate().ok());  // sealed segment, no checkpoint
    Drive(&live, plans, 4, 5);
    ASSERT_TRUE(live.Shutdown().ok());
  }
  TuningService restarted(space_, nullptr, FastOptions(), 45);
  Result<TuningService::RecoveryReport> report =
      restarted.RecoverFromCheckpoint(path, plans);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->journal_clean);
  EXPECT_EQ(report->checkpoint_seq, 0u);
  EXPECT_EQ(report->segments_replayed, 1u);
  EXPECT_EQ(report->tail_records, 18u);
  EXPECT_EQ(report->observations_replayed, 18u);
  for (const sparksim::QueryPlan& plan : plans) {
    EXPECT_EQ(restarted.IterationCount(plan.Signature()), 9u);
  }
}

TEST_F(TuningServiceTest, SharedBudgetWithoutStoreBoundsObservationHistory) {
  TuningService service(space_, nullptr, FastOptions(), 46);
  const std::vector<sparksim::QueryPlan> plans = {
      sparksim::TpchPlan(1), sparksim::TpchPlan(2), sparksim::TpchPlan(3)};
  Drive(&service, plans, 40);
  const size_t bytes = service.observations().ApproxBytes();
  ASSERT_GT(bytes, 0u);

  // The observation slice (40% by default) of a budget 10x the history
  // holds it: nothing tightens.
  service.SetSharedBudgetBytes(bytes * 10);
  EXPECT_EQ(service.observations().retention(), 0u);

  // A budget the size of the history leaves its observation slice
  // exceeded: retention tightens at once, and every sweep halves it.
  service.SetSharedBudgetBytes(bytes);
  EXPECT_GT(service.observations().retention(), 0u);
  for (int i = 0; i < 4; ++i) service.SweepStateTier();
  EXPECT_LT(service.observations().ApproxBytes(), bytes);
  EXPECT_GT(service.observations().TruncatedTotal(), 0u);

  // Without a cold store no state is evicted.
  const TierStats stats = service.StateTierStats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_signatures, plans.size());
}

}  // namespace
}  // namespace rockhopper::core
