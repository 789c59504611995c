#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/tuning_service.h"
#include "inputs.h"
#include "net/server.h"
#include "net/server_core.h"

namespace servebench {

namespace core = rockhopper::core;
namespace net = rockhopper::net;

/// serve's default --seed.
inline constexpr uint64_t kServiceSeed = 37;

/// The serving stack exactly as `rockhopper serve --listen` wires it: a
/// TuningService (with the state tier and its sweeper on a restart), a
/// group-commit ObservationJournal, net::ServerCore with serve's default
/// admission options, and a net::Server with two I/O threads on an
/// ephemeral loopback port. The benchmark's population is registered in
/// the plan registry, since serve only registers the suite plans.
class ServingStack {
 public:
  /// `dir` holds the journal. With `restart`, the journal chain already
  /// placed in `dir` is recovered lazily behind a state tier whose model
  /// store also lives in `dir`.
  ServingStack(const std::string& dir, bool restart,
               const Population* population);
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Builds the service, attaches the tier and recovers (on a restart),
  /// then opens the journal in group-commit mode. On a restart `recovery`
  /// receives the report and `recover_*_ns` the recovery call's interval.
  rockhopper::Status Prepare(core::TuningService::RecoveryReport* recovery,
                             int64_t* recover_start_ns,
                             int64_t* recover_end_ns);
  /// Registers the population and starts the socket server.
  rockhopper::Status StartServer();
  /// Drains and stops the server, then shuts the service's journal down;
  /// returns TuningService::Shutdown's status. Idempotent.
  rockhopper::Status Stop();

  core::TuningService& service() { return *service_; }
  uint16_t port() const { return server_ != nullptr ? server_->port() : 0; }
  const std::string& journal_path() const { return journal_path_; }

 private:
  const std::string dir_;
  const bool restart_;
  const Population* population_;
  std::string journal_path_;
  /// The service keeps a reference to its config space.
  const sparksim::ConfigSpace space_;
  std::optional<core::ModelStore> store_;
  core::ObservationJournal journal_;
  std::unique_ptr<core::TuningService> service_;
  net::PlanRegistry registry_;
  std::unique_ptr<net::ServerCore> core_;
  std::unique_ptr<net::Server> server_;
  bool stopped_ = false;
  rockhopper::Status stop_status_;
};

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
