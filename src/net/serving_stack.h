#ifndef ROCKHOPPER_NET_SERVING_STACK_H_
#define ROCKHOPPER_NET_SERVING_STACK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/baseline_model.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "net/server.h"
#include "net/server_core.h"
#include "sparksim/config_space.h"
#include "sparksim/plan.h"

namespace rockhopper::net {

/// How a ServingStack is wired. Each field is one serving flag of the CLI
/// (`rockhopper serve`, `serve --listen`, `tune`, `recover`) or an existing
/// options struct.
struct ServingStackOptions {
  /// The journal chain to recover, then append to (--journal). Empty: no
  /// journal, and the journal steps are skipped.
  std::string journal_path;
  /// Compact the journal every this many accepted observations
  /// (--checkpoint-interval); 0: no online compaction.
  size_t checkpoint_interval = 0;
  /// The cold store's directory (--state-dir). The store opens only when
  /// something can be evicted: a shared budget or an idle TTL.
  std::string state_dir = "rockhopper-state";
  /// The state tier (--memory-budget and the other tier flags;
  /// lazy_recovery picks the recovery mode). The stack sets plan_resolver.
  core::StateTierOptions tier;
  /// The socket server (--listen, --io-threads, --poll); absent: no server.
  std::optional<ServerOptions> listen;
  /// The server core behind it (--tenant-rate, --flush-p99-target, ...).
  /// The stack sets tiering_budget_bytes.
  ServerCoreOptions server_core;
};

/// The one serving stack: a TuningService over one plan directory, with
/// its state tier, sweeper, journal chain, online compactor and, when
/// told to listen, the socket front end. It runs the serving steps in one
/// order:
///   Open   1. attach the state tier the options describe;
///          2. start its sweeper;
///          3. recover the journal chain (none yet is a cold start);
///          4. open the journal in group commit, compacting a damaged live
///             tail away first;
///          5. compact every checkpoint_interval accepted observations;
///          and start the server when listening;
///   (the caller drives traffic)
///   Close  6. drain the server;
///          7. run one final compaction;
///          8. shut the journal down, Status checked.
/// So a journal is only ever appended by a service that recovered it.
class ServingStack {
 public:
  /// What Open found, for the caller to report.
  struct OpenReport {
    /// The journal chain's recovery; absent on a cold start (no chain, or
    /// no journal).
    std::optional<core::TuningService::RecoveryReport> recovery;
    /// Torn records dropped when a damaged live tail was compacted away;
    /// absent when the live journal was clean.
    std::optional<size_t> compacted_torn_records;
  };

  /// `plans` is the plan directory: it resolves the signatures the chain
  /// recovers, the tier rebuilds and the server accepts. `plans` and
  /// `baseline` (may be null) must outlive the stack.
  ServingStack(const std::vector<sparksim::QueryPlan>& plans,
               const core::BaselineModel* baseline, uint64_t seed,
               ServingStackOptions options);
  /// Close is the backstop.
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Steps 1-5, then the server start when listening. With
  /// `require_chain` a missing chain is kNotFound and no file is created.
  /// Call once.
  Result<OpenReport> Open(bool require_chain);

  /// Steps 6-8: drains the server (bounded by `drain_ms`), stops the
  /// compactor, compacts once more when it ran, and returns
  /// TuningService::Shutdown's Status. Idempotent.
  Status Close(int drain_ms = 2000);

  core::TuningService& service() { return service_; }
  /// The socket server and its core; null unless Open ran with `listen`.
  Server* server() { return server_.get(); }
  ServerCore* server_core() { return core_.get(); }
  const PlanRegistry& plans() const { return registry_; }
  const ServingStackOptions& options() const { return options_; }
  /// Whether the tier spills evicted state to a cold store.
  bool has_cold_store() const { return store_.has_value(); }
  /// Successful compactions: the online ones plus the final one.
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

 private:
  ServingStackOptions options_;
  const sparksim::ConfigSpace space_;  // the service keeps a reference
  // Declared before the service, which points into all three: the plan
  // directory its resolver reads, the cold store evictions spill to, and
  // the journal.
  PlanRegistry registry_;
  std::optional<core::ModelStore> store_;
  core::ObservationJournal journal_;
  core::TuningService service_;
  // Declared after the service they call into.
  std::unique_ptr<ServerCore> core_;
  std::unique_ptr<Server> server_;
  std::atomic<bool> compacting_{false};
  std::atomic<uint64_t> checkpoints_{0};
  std::thread compactor_;
  bool closed_ = false;
  Status close_status_;
};

}  // namespace rockhopper::net

#endif  // ROCKHOPPER_NET_SERVING_STACK_H_
