#include "stack.h"

#include "spans.h"

namespace servebench {

using rockhopper::Status;

namespace {

/// The shared state budget of a restart (serve --memory-budget). It holds
/// every state a run touches and the whole recovered history, so nothing is
/// evicted and retention never truncates mid-run: the phase measures lazy
/// fault-in by replay at a constant cost. (An eviction-bound budget was not
/// steady on ext4; see README.md.)
constexpr size_t kRestartBudgetBytes = size_t{1} << 30;

}  // namespace

ServingStack::ServingStack(const std::string& dir, bool restart,
                           const Population* population)
    : dir_(dir),
      restart_(restart),
      population_(population),
      journal_path_(dir + "/journal.log"),
      space_(sparksim::QueryLevelSpace()) {}

ServingStack::~ServingStack() { (void)Stop(); }

Status ServingStack::Prepare(core::TuningService::RecoveryReport* recovery,
                             int64_t* recover_start_ns,
                             int64_t* recover_end_ns) {
  service_ = std::make_unique<core::TuningService>(
      space_, nullptr, core::TuningServiceOptions{}, kServiceSeed);
  if (restart_) {
    store_.emplace(dir_ + "/store");
    core::StateTierOptions tier;
    tier.shared_budget_bytes = kRestartBudgetBytes;
    tier.lazy_recovery = true;
    const Population* population = population_;
    tier.plan_resolver =
        [population](uint64_t signature) -> const sparksim::QueryPlan* {
      auto it = population->by_signature.find(signature);
      return it == population->by_signature.end() ? nullptr : it->second;
    };
    service_->AttachStateTier(&*store_, tier);
    // serve --listen runs the sweeper whenever a tier is attached.
    if (service_->state_tier_options().sweep_interval_ms > 0) {
      service_->StartStateSweeper();
    }
    core::TuningService::RecoveryOptions lazy;
    lazy.lazy = true;
    *recover_start_ns = NowNs();
    auto report = service_->RecoverFromCheckpoint(journal_path_, {}, lazy);
    *recover_end_ns = NowNs();
    if (!report.ok()) return report.status();
    *recovery = *std::move(report);
  }
  auto opened = core::ObservationJournal::Open(journal_path_);
  if (!opened.ok()) return opened.status();
  journal_ = std::move(*opened);
  ROCKHOPPER_RETURN_IF_ERROR(journal_.StartGroupCommit({}));
  service_->AttachJournal(&journal_);
  return Status::OK();
}

Status ServingStack::StartServer() {
  for (const sparksim::QueryPlan& plan : population_->plans) {
    registry_.Register(&plan);
  }
  // serve --listen's defaults: no tenant limit, 50 ms flush-p99 target,
  // default queue target, the tier budget as the resident-bytes
  // denominator, Admin verb off, 64-observe batches.
  net::ServerCoreOptions core_options;
  core_options.tenant_limits.default_rate = 0.0;
  core_options.tenant_limits.burst_seconds = 0.25;
  core_options.admission.flush_p99_target = 0.050;
  core_options.tiering_budget_bytes = restart_ ? kRestartBudgetBytes : 0;
  core_options.max_batch = 64;
  core_ = std::make_unique<net::ServerCore>(service_.get(), &registry_,
                                            core_options);
  net::ServerOptions server_options;
  server_options.host = "127.0.0.1";
  server_options.port = 0;
  server_options.io_threads = 2;
  server_ = std::make_unique<net::Server>(core_.get(), server_options);
  return server_->Start();
}

Status ServingStack::Stop() {
  if (stopped_) return stop_status_;
  stopped_ = true;
  if (server_ != nullptr) server_->Stop(2000);
  stop_status_ = service_ != nullptr ? service_->Shutdown() : Status::OK();
  return stop_status_;
}

}  // namespace servebench
