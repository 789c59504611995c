#include "net/serving_stack.h"

#include <chrono>
#include <utility>

namespace rockhopper::net {

ServingStack::ServingStack(const std::vector<sparksim::QueryPlan>& plans,
                           const core::BaselineModel* baseline, uint64_t seed,
                           ServingStackOptions options)
    : options_(std::move(options)),
      space_(sparksim::QueryLevelSpace()),
      service_(space_, baseline, core::TuningServiceOptions{}, seed) {
  for (const sparksim::QueryPlan& plan : plans) registry_.Register(&plan);
}

ServingStack::~ServingStack() { (void)Close(); }

Result<ServingStack::OpenReport> ServingStack::Open(bool require_chain) {
  core::StateTierOptions tier = options_.tier;
  tier.plan_resolver = [this](uint64_t signature) {
    return registry_.Find(signature);
  };
  if (tier.shared_budget_bytes > 0 || tier.idle_ttl_ticks > 0) {
    store_.emplace(options_.state_dir);
  }
  service_.AttachStateTier(store_ ? &*store_ : nullptr, std::move(tier));
  service_.StartStateSweeper();

  OpenReport opened;
  const std::string& path = options_.journal_path;
  if (!path.empty()) {
    core::TuningService::RecoveryOptions recovery;
    recovery.lazy = options_.tier.lazy_recovery;
    // The registry resolves every recovered signature, so the service
    // keeps no copies of the plans.
    auto report = service_.RecoverFromCheckpoint(path, {}, recovery);
    if (report.ok()) {
      opened.recovery = *std::move(report);
    } else if (report.status().code() != StatusCode::kNotFound) {
      return report.status();
    } else if (require_chain) {
      return Status::NotFound("no journal at " + path);
    }

    ROCKHOPPER_ASSIGN_OR_RETURN(journal, core::ObservationJournal::Open(path));
    journal_ = std::move(journal);
    ROCKHOPPER_RETURN_IF_ERROR(journal_.StartGroupCommit({}));
    service_.AttachJournal(&journal_);
    // The next recovery would drop records appended behind a damaged tail
    // along with it: compact once first, which seals the live file and
    // keeps its valid prefix.
    if (opened.recovery && !opened.recovery->live_journal_clean) {
      ROCKHOPPER_ASSIGN_OR_RETURN(compacted, service_.Checkpoint());
      opened.compacted_torn_records = compacted.records_dropped;
    }

    if (options_.checkpoint_interval > 0) {
      // Online compaction: the journal's rotation barrier lets it run
      // concurrently with live group-commit appends.
      compacting_.store(true, std::memory_order_relaxed);
      compactor_ = std::thread([this] {
        uint64_t last = 0;
        while (compacting_.load(std::memory_order_relaxed)) {
          const uint64_t accepted = service_.telemetry_stats().accepted.load(
              std::memory_order_relaxed);
          if (accepted - last >= options_.checkpoint_interval) {
            if (service_.Checkpoint().ok()) {
              checkpoints_.fetch_add(1, std::memory_order_relaxed);
            }
            last = accepted;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
  }

  if (options_.listen) {
    ServerCoreOptions core_options = options_.server_core;
    core_options.tiering_budget_bytes = service_.shared_budget_bytes();
    core_ = std::make_unique<ServerCore>(&service_, &registry_, core_options);
    server_ = std::make_unique<Server>(core_.get(), *options_.listen);
    ROCKHOPPER_RETURN_IF_ERROR(server_->Start());
  }
  return opened;
}

Status ServingStack::Close(int drain_ms) {
  if (closed_) return close_status_;
  closed_ = true;
  // Drain first: staged observe batches flush through the service and
  // buffered responses are written, so every request the server acked is
  // journaled before the journal shuts down.
  if (server_ != nullptr) server_->Stop(drain_ms);
  if (compactor_.joinable()) {
    compacting_.store(false, std::memory_order_relaxed);
    compactor_.join();
    // One final compaction so the chain a restart replays is as short as
    // the interval promises.
    if (service_.Checkpoint().ok()) {
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  close_status_ = service_.Shutdown();
  return close_status_;
}

}  // namespace rockhopper::net
