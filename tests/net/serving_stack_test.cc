#include "net/serving_stack.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "net/client.h"
#include "net/wire.h"
#include "sparksim/workloads.h"

namespace rockhopper::net {
namespace {

class ServingStackTest : public ::testing::Test {
 protected:
  /// A directory unique to this process and test, removed with the test.
  ServingStackTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("rockhopper_stack_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name())),
        plans_({sparksim::TpchPlan(1), sparksim::TpchPlan(2)}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ServingStackTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Options whose files stay inside the test directory; an empty `journal`
  /// is no journal.
  ServingStackOptions Options(const std::string& journal = "",
                              size_t checkpoint_interval = 0) const {
    ServingStackOptions options;
    if (!journal.empty()) options.journal_path = (dir_ / journal).string();
    options.checkpoint_interval = checkpoint_interval;
    options.state_dir = (dir_ / "state").string();
    return options;
  }

  /// Runs `rounds` propose/observe rounds of every plan through the stack's
  /// service, in process.
  void Drive(ServingStack* stack, int rounds) const {
    for (int round = 0; round < rounds; ++round) {
      for (const sparksim::QueryPlan& plan : plans_) {
        const sparksim::ConfigVector config =
            stack->service().OnQueryStart(plan, 1e9);
        stack->service().OnQueryEnd(
            plan, core::QueryEndEvent::FromRun(config, 1e9, 10 + round % 3));
      }
    }
  }

  /// One serving run on `options` (a missing chain is a cold start) that
  /// drives `rounds` rounds; returns its compaction count.
  uint64_t Serve(const ServingStackOptions& options, int rounds) const {
    ServingStack stack(plans_, nullptr, 31, options);
    EXPECT_TRUE(stack.Open(false).ok());
    Drive(&stack, rounds);
    EXPECT_TRUE(stack.Close().ok());
    return stack.checkpoints();
  }

  /// The recovery report of a stack opened on `options`'s existing chain.
  core::TuningService::RecoveryReport Recover(
      const ServingStackOptions& options) const {
    ServingStack stack(plans_, nullptr, 31, options);
    Result<ServingStack::OpenReport> opened = stack.Open(true);
    EXPECT_TRUE(opened.ok() && opened->recovery) << opened.status().ToString();
    EXPECT_TRUE(stack.Close().ok());
    if (!opened.ok()) return {};
    return opened->recovery.value_or(core::TuningService::RecoveryReport{});
  }

  const std::filesystem::path dir_;
  const std::vector<sparksim::QueryPlan> plans_;
};

TEST_F(ServingStackTest, ListeningStackCheckpointsAndRecoversWhatItAccepted) {
  const ServingStackOptions options = Options("serve.journal", 8);
  uint64_t accepted = 0;
  {
    ServingStackOptions listening = options;
    listening.listen.emplace();  // loopback, ephemeral port
    ServingStack stack(plans_, nullptr, 37, listening);
    Result<ServingStack::OpenReport> opened = stack.Open(false);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_FALSE(opened->recovery.has_value());  // no chain yet: cold start
    ASSERT_NE(stack.server(), nullptr);

    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", stack.server()->port()).ok());
    client.SetRecvTimeout(5000);
    const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
    constexpr int kObserves = 40;
    int ok = 0;
    for (int i = 0; i < kObserves; ++i) {
      core::QueryEndEvent event;
      event.event_id = static_cast<uint64_t>(i + 1);
      event.config = space.Defaults();
      event.data_size = 1e9;
      event.runtime = 10.0 + i % 3;
      Client::Response response;
      ASSERT_TRUE(client
                      .Call(Verb::kObserveQueryEnd, 1,
                            EncodeObservePayload(plans_[i % 2].Signature(),
                                                 event),
                            &response)
                      .ok());
      // Admission may shed under a slow (sanitized) build; a shed observe
      // is not accepted, so the count below still holds.
      if (response.status == WireStatus::kOk) ++ok;
    }
    client.Close();
    ASSERT_TRUE(stack.Close().ok());
    accepted = stack.service().telemetry_stats().accepted.load();
    EXPECT_GT(ok, 0);
    EXPECT_EQ(accepted, static_cast<uint64_t>(ok));
    EXPECT_EQ(stack.service().journal_errors(), 0u);
    EXPECT_GE(stack.checkpoints(), 1u);  // at least the final compaction
  }
  EXPECT_TRUE(
      std::filesystem::exists(core::CheckpointPath(options.journal_path)));

  ServingStack restarted(plans_, nullptr, 37, options);
  Result<ServingStack::OpenReport> reopened =
      restarted.Open(/*require_chain=*/true);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened->recovery.has_value());
  EXPECT_EQ(reopened->recovery->observations_replayed, accepted);
  EXPECT_EQ(reopened->recovery->observations_dropped, 0u);
  EXPECT_EQ(reopened->recovery->unknown_signatures, 0u);
  EXPECT_EQ(restarted.service().IterationCount(plans_[0].Signature()) +
                restarted.service().IterationCount(plans_[1].Signature()),
            accepted);
  EXPECT_TRUE(restarted.Close().ok());
}

TEST_F(ServingStackTest, RequiredChainThatIsMissingIsNotFoundAndCreatesNoFile) {
  ServingStack stack(plans_, nullptr, 31, Options("missing.journal"));
  Result<ServingStack::OpenReport> opened = stack.Open(/*require_chain=*/true);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(stack.Close().ok());
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(ServingStackTest, WithoutJournalOpensColdAndWritesNoFile) {
  ServingStack stack(plans_, nullptr, 31, Options());
  Result<ServingStack::OpenReport> opened = stack.Open(false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened->recovery || opened->compacted_torn_records);
  EXPECT_EQ(stack.server(), nullptr);
  EXPECT_EQ(stack.server_core(), nullptr);
  EXPECT_FALSE(stack.has_cold_store());
  Drive(&stack, 3);
  EXPECT_EQ(stack.service().telemetry_stats().accepted.load(), 6u);
  EXPECT_TRUE(stack.Close().ok());
  EXPECT_EQ(stack.checkpoints(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(ServingStackTest, SecondRunContinuesEachSignaturesIterations) {
  const ServingStackOptions options = Options("resume.journal");
  Serve(options, 6);
  {
    ServingStack second(plans_, nullptr, 31, options);
    ASSERT_TRUE(second.Open(true).ok());
    for (const sparksim::QueryPlan& plan : plans_) {
      EXPECT_EQ(second.service().IterationCount(plan.Signature()), 6u);
    }
    Drive(&second, 4);
  }
  EXPECT_EQ(Recover(options).observations_replayed, 20u);
}

TEST_F(ServingStackTest, DamagedLiveTailIsReportedThenCompactedAway) {
  const ServingStackOptions options = Options("torn.journal");
  Serve(options, 5);
  // Tear the last record mid-line.
  std::filesystem::resize_file(
      options.journal_path,
      std::filesystem::file_size(options.journal_path) - 5);
  {
    ServingStack stack(plans_, nullptr, 31, options);
    Result<ServingStack::OpenReport> opened = stack.Open(false);
    ASSERT_TRUE(opened.ok() && opened->recovery);
    EXPECT_FALSE(opened->recovery->live_journal_clean);
    EXPECT_EQ(opened->recovery->observations_replayed, 9u);
    EXPECT_EQ(opened->recovery->observations_dropped, 1u);
    EXPECT_EQ(opened->compacted_torn_records.value_or(0), 1u);
    Drive(&stack, 1);  // appended after the sealed prefix
  }
  ServingStack stack(plans_, nullptr, 31, options);
  Result<ServingStack::OpenReport> reopened = stack.Open(true);
  ASSERT_TRUE(reopened.ok() && reopened->recovery);
  EXPECT_TRUE(reopened->recovery->live_journal_clean);
  EXPECT_FALSE(reopened->compacted_torn_records.has_value());
  EXPECT_EQ(reopened->recovery->observations_replayed, 11u);
  EXPECT_EQ(reopened->recovery->observations_dropped, 0u);
}

TEST_F(ServingStackTest, CloseIsIdempotent) {
  ServingStack stack(plans_, nullptr, 31, Options("close.journal", 1000));
  ASSERT_TRUE(stack.Open(false).ok());
  Drive(&stack, 2);
  ASSERT_TRUE(stack.Close().ok());
  EXPECT_TRUE(stack.Close().ok());
  EXPECT_EQ(stack.checkpoints(), 1u);  // no second final compaction
}

TEST_F(ServingStackTest, FinalCompactionRunsOnCloseWhenAnIntervalIsSet) {
  // Far above what the test accepts: only the final compaction runs.
  const ServingStackOptions options = Options("final.journal", 1000);
  EXPECT_EQ(Serve(options, 3), 1u);
  const core::TuningService::RecoveryReport recovered = Recover(options);
  EXPECT_EQ(recovered.observations_replayed, 6u);
  EXPECT_EQ(recovered.tail_records, 0u);  // the checkpoint holds them all
}

TEST_F(ServingStackTest, NoIntervalTakesNoCheckpoint) {
  const ServingStackOptions options = Options("plain.journal");
  EXPECT_EQ(Serve(options, 3), 0u);
  EXPECT_FALSE(
      std::filesystem::exists(core::CheckpointPath(options.journal_path)));
  EXPECT_EQ(Recover(options).tail_records, 6u);  // all from the live file
}

TEST_F(ServingStackTest, ColdStoreOpensOnlyWhenSomethingCanBeEvicted) {
  for (const auto& [budget, ttl] : {std::pair<size_t, uint64_t>{0, 0},
                                    {size_t{1} << 20, 0},
                                    {0, 5}}) {
    ServingStackOptions options = Options();
    options.tier.shared_budget_bytes = budget;
    options.tier.idle_ttl_ticks = ttl;
    ServingStack stack(plans_, nullptr, 31, options);
    ASSERT_TRUE(stack.Open(false).ok());
    EXPECT_EQ(stack.has_cold_store(), budget > 0 || ttl > 0);
    EXPECT_EQ(stack.service().shared_budget_bytes(), budget);
  }
}

TEST_F(ServingStackTest, PlanDirectoryResolvesEveryPlanAndNothingElse) {
  ServingStack stack(plans_, nullptr, 31, ServingStackOptions{});
  EXPECT_EQ(stack.plans().size(), plans_.size());
  for (const sparksim::QueryPlan& plan : plans_) {
    EXPECT_EQ(stack.plans().Find(plan.Signature()), &plan);
  }
  EXPECT_EQ(stack.plans().Find(sparksim::TpchPlan(3).Signature()), nullptr);
}

TEST_F(ServingStackTest, LazyRecoveryMaterializesThroughThePlanDirectory) {
  ServingStackOptions options = Options("lazy.journal");
  Serve(options, 6);
  // The explanation, without the service-global telemetry it ends with.
  auto explained = [](ServingStack* stack, uint64_t signature) {
    Result<std::string> text = stack->service().ExplainQuery(signature);
    return text.ok() ? text->substr(0, text->find("; telemetry:"))
                     : text.status().ToString();
  };
  std::vector<std::string> eager_explained;
  {
    ServingStack eager(plans_, nullptr, 31, options);
    ASSERT_TRUE(eager.Open(true).ok());
    for (const sparksim::QueryPlan& plan : plans_) {
      eager_explained.push_back(explained(&eager, plan.Signature()));
      EXPECT_NE(eager_explained.back().find("iteration 6,"), std::string::npos);
    }
  }
  options.tier.lazy_recovery = true;
  ServingStack lazy(plans_, nullptr, 31, options);
  Result<ServingStack::OpenReport> opened = lazy.Open(true);
  ASSERT_TRUE(opened.ok() && opened->recovery);
  EXPECT_EQ(opened->recovery->observations_replayed, 12u);
  // Recovery kept no plan copies: each tombstone materializes on first
  // touch from the stack's plan directory, into the eager state.
  for (size_t i = 0; i < plans_.size(); ++i) {
    EXPECT_EQ(explained(&lazy, plans_[i].Signature()), eager_explained[i]);
  }
}

TEST_F(ServingStackTest, ChainOfOtherPlansRecoversAsUnknownSignatures) {
  const ServingStackOptions options = Options("other.journal");
  Serve(options, 4);
  const std::vector<sparksim::QueryPlan> other = {sparksim::TpchPlan(3)};
  ServingStack stack(other, nullptr, 31, options);
  Result<ServingStack::OpenReport> opened = stack.Open(true);
  ASSERT_TRUE(opened.ok() && opened->recovery);
  EXPECT_EQ(opened->recovery->unknown_signatures, 2u);
  EXPECT_EQ(opened->recovery->observations_replayed, 0u);
}

TEST_F(ServingStackTest, DestructorClosesAnOpenStack) {
  const ServingStackOptions options = Options("backstop.journal", 1000);
  {
    ServingStack stack(plans_, nullptr, 31, options);
    ASSERT_TRUE(stack.Open(false).ok());
    Drive(&stack, 3);
  }  // no Close: the destructor compacts and shuts the journal down
  const core::TuningService::RecoveryReport recovered = Recover(options);
  EXPECT_EQ(recovered.observations_replayed, 6u);
  EXPECT_EQ(recovered.tail_records, 0u);
}

TEST_F(ServingStackTest, ListeningStackHandsTheTierBudgetToItsServerCore) {
  ServingStackOptions options = Options();
  options.tier.shared_budget_bytes = 1 << 20;
  options.listen.emplace();
  ServingStack stack(plans_, nullptr, 31, options);
  ASSERT_TRUE(stack.Open(false).ok());
  ASSERT_NE(stack.server_core(), nullptr);
  EXPECT_NE(stack.server()->port(), 0);
  EXPECT_EQ(stack.server_core()->options().tiering_budget_bytes, 1u << 20);
}

TEST_F(ServingStackTest, ServerAnswersOnlyForThePlanDirectory) {
  ServingStackOptions options;
  options.listen.emplace();
  ServingStack stack(plans_, nullptr, 31, options);
  ASSERT_TRUE(stack.Open(false).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server()->port()).ok());
  client.SetRecvTimeout(5000);
  // No journal and no budget: admission has no overload signal to shed on.
  auto propose = [&client](uint64_t signature) {
    Client::Response response;
    EXPECT_TRUE(client.Call(Verb::kPropose, 1,
                            EncodeProposePayload(signature, 1e9), &response)
                    .ok());
    return response.status;
  };
  EXPECT_EQ(propose(plans_[0].Signature()), WireStatus::kOk);
  EXPECT_EQ(propose(sparksim::TpchPlan(3).Signature()),
            WireStatus::kUnknownSignature);
}

}  // namespace
}  // namespace rockhopper::net
