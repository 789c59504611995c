// rockhopper — command-line driver for the library, the shape of the
// paper's operational tooling:
//
//   rockhopper flight --suite=tpcds --configs=8 --out=DIR
//       run the offline flighting pipeline, export the trace CSV, train
//       the baseline model, and store the serialized artifact (§4.2, §5);
//
//   rockhopper tune --suite=tpch --iters=40 --model-dir=DIR [--journal=FILE]
//       load the stored baseline, tune the chosen suite online against the
//       simulator, and print per-query outcomes; --journal resumes from the
//       journal chain and appends to it;
//
//   rockhopper report --journal=FILE
//       read a journal chain and print the monitoring dashboard (trend,
//       per-dimension insights, RCA verdict) per query signature (§6.3
//       posterior analysis);
//
//   rockhopper simulate --seed=N | --seeds=A..B [--trace=FILE]
//       run the deterministic whole-service simulation harness (src/sim):
//       multi-tenant virtual-clock serving, a mid-run crash, recovery, and
//       cross-layer invariant checks, all derived from the seed; in
//       ROCKHOPPER_SIM builds Buggify sections also inject journal / model
//       store / pipeline faults (docs/FAULT_MODEL.md); --seeds sweeps a seed
//       range and exits non-zero with the reproducing seed;
//
//   rockhopper replay --trace=FILE
//       load a CRC-checked trace recorded by simulate --trace and replay it
//       twice into identically-seeded fresh services, verifying both
//       replays converge to the same state digest and metric deltas;
//
//   rockhopper recover --journal=FILE --suite=tpch
//       restore a tuning service from the crash-safe journal chain
//       (checkpoint + sealed segments + live tail, tolerating a truncated
//       or corrupt tail) and print what survived, including the checkpoint
//       sequence and the replayed tail length;
//
//   rockhopper checkpoint --journal=FILE
//       compact the journal offline: seal the live file, absorb the sealed
//       segments into the checkpoint chain (a full image first, then
//       deltas under the default policy), and truncate the absorbed prefix;
//
//   rockhopper serve --suite=tpcds --threads=8 --iters=20 [--chaos]
//       drive one shared tuning service from concurrent tenant threads
//       (the multi-tenant deployment shape of §6.3), or from the wire
//       protocol with --listen; --journal=FILE resumes from the chain and
//       appends through group commit; --memory-budget=BYTES arms the tiered
//       state layer; --checkpoint-interval=N compacts the journal every N
//       accepted observations; exits with a metrics scrape
//       (--metrics-format=prom|json|off);
//
// serve, serve --listen, tune and recover hold their service through one
// net::ServingStack (src/net/serving_stack.h), so a journal is only ever
// appended by a service that has recovered it. Every run is deterministic
// given --seed (serve: per-signature streams are seed-deterministic; thread
// interleaving varies).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

#include "core/checkpoint.h"
#include "core/embedding.h"
#include "core/flighting.h"
#include "core/journal.h"
#include "core/model_store.h"
#include "core/monitor.h"
#include "core/tracing.h"
#include "core/transfer.h"
#include "core/tuning_service.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/serving_stack.h"
#include "sim/service_digest.h"
#include "sim/sim_runner.h"
#include "sim/trace.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"
#include "tools/concurrent_driver.h"

namespace {

using namespace rockhopper;        // NOLINT(build/namespaces)
using namespace rockhopper::core;  // NOLINT(build/namespaces)
namespace sparksim = rockhopper::sparksim;

// The one baseline-model key the CLI uses in its model store ("one model
// per region", §4.2).
constexpr uint64_t kRegionKey = 1;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  int GetInt(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "true";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

// Parses "A..B" (inclusive) or a single "N" into [lo, hi].
bool ParseSeedRange(const std::string& text, uint64_t* lo, uint64_t* hi) {
  if (text.empty()) return false;
  const size_t dots = text.find("..");
  char* end = nullptr;
  if (dots == std::string::npos) {
    *lo = *hi = std::strtoull(text.c_str(), &end, 10);
    return end != text.c_str() && *end == '\0';
  }
  const std::string a = text.substr(0, dots);
  const std::string b = text.substr(dots + 2);
  *lo = std::strtoull(a.c_str(), &end, 10);
  if (end == a.c_str() || *end != '\0') return false;
  *hi = std::strtoull(b.c_str(), &end, 10);
  if (end == b.c_str() || *end != '\0') return false;
  return *lo <= *hi;
}

// The suite --suite names (`fallback` when absent). Any other name is a
// usage error: the process exits 2 naming the two suites.
FlightingConfig::Suite SuiteArg(const Args& args, const char* fallback) {
  const std::string name = args.Get("suite", fallback);
  if (name == "tpch") return FlightingConfig::Suite::kTpch;
  if (name == "tpcds") return FlightingConfig::Suite::kTpcds;
  std::fprintf(stderr, "unknown --suite=%s (want tpch or tpcds)\n",
               name.c_str());
  std::exit(2);
}

// Every plan of the --suite suite, in query order.
std::vector<sparksim::QueryPlan> SuitePlans(const Args& args,
                                            const char* fallback) {
  const FlightingConfig::Suite suite = SuiteArg(args, fallback);
  const int count = suite == FlightingConfig::Suite::kTpch
                        ? sparksim::kNumTpchQueries
                        : sparksim::kNumTpcdsQueries;
  std::vector<sparksim::QueryPlan> plans;
  for (int q = 1; q <= count; ++q) {
    plans.push_back(FlightingPipeline::PlanFor(suite, q));
  }
  return plans;
}

// How a journal chain read: clean, or recovered around damage — kDataLoss
// means bytes were dropped, and re-reading will not bring them back.
void PrintJournalStatus(const std::string& path, const Status& status) {
  if (status.ok()) {
    std::printf("journal %s: clean\n", path.c_str());
  } else {
    std::printf("journal %s: recovered around damaged tail (%s)\n",
                path.c_str(), status.ToString().c_str());
  }
}

// The serving flags of serve, serve --listen, tune and recover, as the
// options of their one serving stack (net::ServingStack):
// --journal names the chain to recover, then append to, compacted every
// --checkpoint-interval accepted observations; --memory-budget is the one
// process-wide budget, split between resident query state and observation
// history by --state-budget-fraction; --idle-ttl plus --sweep-interval-ms
// drive idle eviction; --compress=false stores cold artifacts and
// checkpoint deltas raw; --lazy-recovery=true restores signatures as cold
// pointers that fault in on first touch. A cold store under --state-dir is
// opened only when something can be evicted (a budget or an idle TTL).
net::ServingStackOptions ServingFlags(const Args& args) {
  net::ServingStackOptions options;
  options.journal_path = args.Get("journal", "");
  options.checkpoint_interval =
      static_cast<size_t>(std::max(0, args.GetInt("checkpoint-interval", 0)));
  options.state_dir = args.Get("state-dir", options.state_dir);
  StateTierOptions& tier = options.tier;
  tier.shared_budget_bytes =
      std::strtoull(args.Get("memory-budget", "0").c_str(), nullptr, 10);
  tier.state_budget_fraction =
      args.GetDouble("state-budget-fraction", tier.state_budget_fraction);
  tier.observation_window =
      static_cast<size_t>(args.GetInt("obs-window", 0));
  tier.idle_ttl_ticks = static_cast<uint64_t>(args.GetInt("idle-ttl", 0));
  tier.sweep_interval_ms = args.GetInt("sweep-interval-ms", 1000);
  tier.compress = args.Get("compress", "true") != "false";
  tier.lazy_recovery = args.Get("lazy-recovery", "") == "true";
  return options;
}

// Opens the stack and prints what its recovery found; false after printing
// why it could not open. With `require_chain` a missing chain is an error
// rather than a cold start.
bool OpenStack(net::ServingStack* stack, bool require_chain) {
  auto opened = stack->Open(require_chain);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return false;
  }
  if (const auto& report = opened->recovery) {
    PrintJournalStatus(stack->options().journal_path, report->journal_status);
    std::printf("checkpoint seq %llu; replayed tail of %zu records across "
                "%zu sealed segments + live journal\n",
                static_cast<unsigned long long>(report->checkpoint_seq),
                report->tail_records, report->segments_replayed);
    std::printf("recovered %zu signatures, %zu observations (%zu dropped, "
                "%zu unknown signatures)\n",
                report->signatures_restored, report->observations_replayed,
                report->observations_dropped, report->unknown_signatures);
  }
  if (opened->compacted_torn_records) {
    std::printf("compacted the damaged journal (%zu torn records dropped)\n",
                *opened->compacted_torn_records);
  }
  return true;
}

// Closes the stack once the verb drained its traffic (a no-op when the verb
// already closed it to drain its server), then prints the exit report and
// the metrics scrape. Returns `exit_code`, or 1 when the journal failed.
int FinishStack(net::ServingStack* stack, int exit_code, const Args& args,
                const char* default_metrics_format) {
  // A journal that swallowed a write error must fail the run loudly, not
  // exit 0 with silently missing records.
  if (Status st = stack->Close(); !st.ok()) {
    std::fprintf(stderr, "journal shutdown failed: %s\n",
                 st.ToString().c_str());
    exit_code = 1;
  }

  const TuningService& service = stack->service();
  const net::ServingStackOptions& options = stack->options();
  const TelemetryStats& stats = service.telemetry_stats();
  std::printf("sanitizer: %llu accepted, %llu rejected; guardrail disabled "
              "%zu/%zu signatures\n",
              static_cast<unsigned long long>(
                  stats.accepted.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(stats.total_rejected()),
              service.NumDisabled(), service.NumSignatures());
  if (!options.journal_path.empty()) {
    std::printf("journal closed: %s (%llu append errors)\n",
                options.journal_path.c_str(),
                static_cast<unsigned long long>(service.journal_errors()));
    if (options.checkpoint_interval > 0) {
      std::printf("journal checkpoints: %llu (every %zu accepted "
                  "observations)\n",
                  static_cast<unsigned long long>(stack->checkpoints()),
                  options.checkpoint_interval);
    }
  }
  if (stack->has_cold_store()) {
    const TierStats tier = service.StateTierStats();
    std::printf("state tier: %zu resident (%zu bytes of %llu budget), "
                "%zu cold; %llu evictions, %llu fault-ins\n",
                tier.resident_signatures, tier.resident_bytes,
                static_cast<unsigned long long>(service.shared_budget_bytes()),
                tier.cold_signatures,
                static_cast<unsigned long long>(tier.evictions),
                static_cast<unsigned long long>(tier.faultins));
  }

  const std::string format = args.Get("metrics-format", default_metrics_format);
  if (format != "off") {
    const common::MetricsSnapshot scrape = service.Metrics();
    std::printf("\n# --- metrics scrape at exit ---\n");
    if (format == "json") {
      std::printf("%s\n", scrape.ToJson().c_str());
    } else {
      std::printf("%s", scrape.ToPrometheusText().c_str());
    }
  }
  return exit_code;
}

int RunFlight(const Args& args) {
  const std::string out_dir = args.Get("out", "rockhopper-out");
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams::Low();
  sim_options.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  sparksim::SparkSimulator sim(sim_options);
  FlightingPipeline pipeline(&sim, space);

  FlightingConfig config;
  config.suite = SuiteArg(args, "tpcds");
  config.configs_per_query = args.GetInt("configs", 8);
  config.runs_per_config = args.GetInt("runs", 1);
  config.config_generation = args.Get("generation", "Random");
  config.scale_factors = {1.0};
  config.seed = sim_options.seed;

  BaselineModel model(space);
  auto records = pipeline.TrainBaseline(config, &model,
                                        args.GetInt("max-samples", 0));
  if (!records.ok()) {
    std::fprintf(stderr, "flighting failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  ModelStore store(out_dir + "/models");
  const std::string trace_path = out_dir + "/trace.csv";
  if (auto st = pipeline.ExportCsv(trace_path, *records); !st.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto artifact = model.Serialize();
  if (!artifact.ok()) {
    std::fprintf(stderr, "serialize failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  auto generation = store.Put(kRegionKey, *artifact);
  if (!generation.ok()) {
    std::fprintf(stderr, "store failed: %s\n",
                 generation.status().ToString().c_str());
    return 1;
  }
  std::printf("flighting: %zu records -> %s\n", records->size(),
              trace_path.c_str());
  std::printf("baseline model: generation %d in %s/models\n", *generation,
              out_dir.c_str());
  return 0;
}

int RunTune(const Args& args) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::string model_dir = args.Get("model-dir", "rockhopper-out");
  BaselineModel model(space);
  const BaselineModel* baseline = nullptr;
  ModelStore store(model_dir + "/models");
  if (auto artifact = store.GetLatest(kRegionKey); artifact.ok()) {
    if (model.Deserialize(*artifact).ok()) {
      baseline = &model;
      std::printf("loaded baseline model from %s/models\n",
                  model_dir.c_str());
    } else {
      std::fprintf(stderr, "stored baseline model is unreadable; tuning "
                           "cold\n");
    }
  } else if (artifact.status().code() == StatusCode::kNotFound) {
    // Expected cold start: nothing stored under this key yet.
    std::printf("no stored baseline model; tuning cold\n");
  } else {
    // kIOError (or worse): the artifact may exist but could not be read —
    // worth a loud warning, unlike the routine cold start above.
    std::fprintf(stderr, "model store read failed: %s; tuning cold\n",
                 artifact.status().ToString().c_str());
  }

  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = sparksim::NoiseParams{args.GetDouble("fl", 0.3),
                                            args.GetDouble("sl", 0.3)};
  sim_options.seed = static_cast<uint64_t>(args.GetInt("seed", 23));
  sparksim::SparkSimulator sim(sim_options);

  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpch");
  net::ServingStack stack(plans, baseline, sim_options.seed,
                          ServingFlags(args));
  if (!OpenStack(&stack, /*require_chain=*/false)) return 1;
  TuningService& service = stack.service();
  const int iters = args.GetInt("iters", 40);
  std::printf("tuning %zu queries x %d iterations (FL=%.2f SL=%.2f)\n\n",
              plans.size(), iters, sim_options.noise.fluctuation_level,
              sim_options.noise.spike_level);

  double default_total = 0.0, tuned_total = 0.0;
  for (size_t q = 0; q < plans.size(); ++q) {
    const sparksim::QueryPlan& plan = plans[q];
    const double default_sec = sim.cost_model().ExecutionSeconds(
        plan, sparksim::EffectiveConfig::FromQueryConfig(space.Defaults()),
        1.0);
    double tail = 0.0;
    const int tail_n = std::max(1, iters / 8);
    for (int run = 0; run < iters; ++run) {
      const sparksim::ConfigVector config =
          service.OnQueryStart(plan, plan.LeafInputBytes(1.0));
      const sparksim::ExecutionResult result =
          sim.ExecuteQuery(plan, config, 1.0);
      service.OnQueryEnd(plan,
                         QueryEndEvent::FromRun(config, result.input_bytes,
                                                result.runtime_seconds));
      if (run >= iters - tail_n) tail += result.noise_free_seconds;
    }
    tail /= tail_n;
    default_total += default_sec;
    tuned_total += tail;
    std::printf("q%-3zu  %8.2f s -> %8.2f s  (%+6.1f%%)%s\n", q + 1,
                default_sec, tail, 100.0 * (default_sec - tail) / default_sec,
                service.IsTuningEnabled(plan.Signature()) ? ""
                                                          : "  [guardrail]");
  }
  std::printf("\nsuite: %.1f s -> %.1f s (%.1f%% improvement); guardrail "
              "disabled %zu/%zu\n",
              default_total, tuned_total,
              100.0 * (default_total - tuned_total) / default_total,
              service.NumDisabled(), service.NumSignatures());
  return FinishStack(&stack, 0, args, "off");
}

int RunReport(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "report requires --journal=FILE\n");
    return 1;
  }
  auto chain = RecoverJournalChain(journal_path);
  if (!chain.ok()) {
    std::fprintf(stderr, "cannot read journal: %s\n",
                 chain.status().ToString().c_str());
    return 1;
  }
  PrintJournalStatus(journal_path, chain->tail_status);
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  for (uint64_t signature : chain->store.Signatures()) {
    TuningMonitor monitor(&space);
    for (const Observation& obs : chain->store.History(signature)) {
      MonitorRecord record;
      record.iteration = obs.iteration;
      record.config = obs.config;
      record.data_size = obs.data_size;
      record.runtime = obs.runtime;
      record.failed = obs.failed;
      monitor.Record(record);
    }
    std::printf("--- signature %llu ---\n%s\n",
                static_cast<unsigned long long>(signature),
                monitor.Report().c_str());
  }
  return 0;
}

// The serving stack with no traffic: recovery, then what survived.
int RunRecover(const Args& args) {
  if (args.Get("journal", "").empty()) {
    std::fprintf(stderr, "recover requires --journal=FILE\n");
    return 1;
  }
  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpch");
  net::ServingStack stack(plans, nullptr,
                          static_cast<uint64_t>(args.GetInt("seed", 31)),
                          ServingFlags(args));
  if (!OpenStack(&stack, /*require_chain=*/true)) return 1;
  const TuningService& service = stack.service();
  for (const sparksim::QueryPlan& plan : plans) {
    const size_t n = service.IterationCount(plan.Signature());
    if (n == 0) continue;
    std::printf("  signature %llu: %zu iterations, tuning %s\n",
                static_cast<unsigned long long>(plan.Signature()), n,
                service.IsTuningEnabled(plan.Signature()) ? "enabled"
                                                          : "disabled");
  }
  return FinishStack(&stack, 0, args, "off");
}

// Operator debugging of bad warm starts: recover a service from the journal
// chain with the transfer tier armed, then print the signature's k nearest
// registered neighbors — raw and normalized embedding distance plus the
// incumbent config the zero-execution recommendation would blend from.
// Uses the exact scan (not HNSW) so the output is the ground truth the
// approximate search is measured against.
int RunNeighbors(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "neighbors requires --journal=FILE\n");
    return 1;
  }
  std::string signature_text = args.Get("signature", "");
  if (signature_text.empty() && !args.positional.empty()) {
    signature_text = args.positional.front();
  }
  if (signature_text.empty()) {
    std::fprintf(stderr,
                 "usage: rockhopper neighbors <signature> --journal=FILE "
                 "[--suite=tpch|tpcds] [--k=N]\n");
    return 1;
  }
  char* end = nullptr;
  const uint64_t signature =
      std::strtoull(signature_text.c_str(), &end, 10);
  if (end == signature_text.c_str() || *end != '\0') {
    std::fprintf(stderr, "neighbors: '%s' is not a signature\n",
                 signature_text.c_str());
    return 1;
  }

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpch");
  TuningServiceOptions options;
  options.transfer.enabled = true;
  TuningService service(space, nullptr, options,
                        static_cast<uint64_t>(args.GetInt("seed", 31)));
  auto report = service.RecoverFromCheckpoint(journal_path, plans);
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const sparksim::QueryPlan* query_plan = nullptr;
  for (const sparksim::QueryPlan& plan : plans) {
    if (plan.Signature() == signature) {
      query_plan = &plan;
      break;
    }
  }
  if (query_plan == nullptr) {
    std::fprintf(stderr,
                 "signature %llu is not in suite %s; recovered signatures:\n",
                 static_cast<unsigned long long>(signature),
                 args.Get("suite", "tpch").c_str());
    for (const sparksim::QueryPlan& plan : plans) {
      if (service.IterationCount(plan.Signature()) == 0) continue;
      std::fprintf(stderr, "  %llu\n",
                   static_cast<unsigned long long>(plan.Signature()));
    }
    return 1;
  }

  const std::vector<double> embedding =
      ComputeEmbedding(*query_plan, options.embedding);
  const size_t k = static_cast<size_t>(args.GetInt("k", 8));
  const std::vector<TransferNeighbor> neighbors =
      service.transfer_index()->ExactNeighbors(embedding, k, signature);
  std::printf("signature %llu: %zu nearest of %zu registered "
              "(radius %.2f normalized)\n",
              static_cast<unsigned long long>(signature), neighbors.size(),
              service.transfer_index()->Size(),
              options.transfer.max_distance);
  for (const TransferNeighbor& n : neighbors) {
    std::printf("  signature %llu  distance=%.4f  normalized=%.4f  "
                "iterations=%zu  tuning %s\n",
                static_cast<unsigned long long>(n.signature), n.distance,
                n.normalized_distance, service.IterationCount(n.signature),
                service.IsTuningEnabled(n.signature) ? "enabled" : "disabled");
    auto incumbent = service.IncumbentConfig(n.signature);
    if (!incumbent.ok()) {
      std::printf("    incumbent unavailable: %s\n",
                  incumbent.status().ToString().c_str());
      continue;
    }
    std::printf("    incumbent:");
    for (size_t i = 0; i < space.size() && i < incumbent->size(); ++i) {
      std::printf(" %s=%g", space.param(i).name.c_str(), (*incumbent)[i]);
    }
    std::printf("\n");
  }
  return 0;
}

// Offline journal compaction: seal the live file behind a rotation barrier,
// absorb the sealed segments into the checkpoint, truncate the absorbed
// prefix. Safe to re-run; a crashed previous compaction is finished.
int RunCheckpoint(const Args& args) {
  const std::string journal_path = args.Get("journal", "");
  if (journal_path.empty()) {
    std::fprintf(stderr, "checkpoint requires --journal=FILE\n");
    return 1;
  }
  // Open would create an empty journal; an explicit miss is more useful.
  if (!std::filesystem::exists(journal_path)) {
    std::fprintf(stderr, "no journal at %s\n", journal_path.c_str());
    return 1;
  }
  auto opened = ObservationJournal::Open(journal_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open journal: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ObservationJournal journal = std::move(*opened);
  auto report = CheckpointLive(&journal);
  const Status closed = journal.Close();
  if (!report.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!closed.ok()) {
    std::fprintf(stderr, "journal close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  const std::string published =
      report->delta_index > 0
          ? CheckpointDeltaPath(journal_path, report->delta_index)
          : report->checkpoint_path;
  std::printf("checkpoint %s: seq %llu, %zu records (%zu segments absorbed,"
              " %zu torn records dropped)\n",
              published.c_str(),
              static_cast<unsigned long long>(report->last_segment),
              report->records, report->segments_absorbed,
              report->records_dropped);
  return 0;
}


// SIGINT/SIGTERM → drain-and-exit for `serve --listen`. RequestStop is one
// atomic store, so the handler is async-signal-safe.
std::atomic<net::Server*> g_listen_server{nullptr};

void HandleStopSignal(int) {
  if (net::Server* server = g_listen_server.load(std::memory_order_acquire)) {
    server->RequestStop();
  }
}

// Parses --listen: "" / "true" → ephemeral port on 127.0.0.1; "PORT";
// "HOST:PORT". Returns false on malformed input.
bool ParseListen(const std::string& value, std::string* host,
                 uint16_t* port) {
  *host = "127.0.0.1";
  *port = 0;
  if (value.empty() || value == "true") return true;
  const size_t colon = value.rfind(':');
  std::string port_text = value;
  if (colon != std::string::npos) {
    if (colon > 0) *host = value.substr(0, colon);
    port_text = value.substr(colon + 1);
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || parsed > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(parsed);
  return true;
}

// serve --listen's traffic: the stack's wire-protocol server, with
// per-tenant token buckets + the global admission controller in front of
// ingestion, takes requests until SIGINT/SIGTERM or --duration-s; then the
// stack closes, draining the server first, so the report below covers every
// request the server acked. Returns the run's exit code.
int DriveListen(const Args& args, net::ServingStack* stack) {
  net::Server* server = stack->server();
  // Scripts wait for this line to learn the ephemeral port.
  std::printf("listening on %s:%u (%zu signatures, suite %s)\n",
              stack->options().listen->host.c_str(), server->port(),
              stack->plans().size(), args.Get("suite", "tpcds").c_str());
  std::fflush(stdout);

  g_listen_server.store(server, std::memory_order_release);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  const double duration_s = args.GetDouble("duration-s", 0.0);
  const auto started = std::chrono::steady_clock::now();
  while (!server->stop_requested()) {
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= duration_s) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // FinishStack reads the Close status again.
  (void)stack->Close(args.GetInt("drain-ms", 2000));
  g_listen_server.store(nullptr, std::memory_order_release);

  const ServiceMetrics& m = ServiceMetrics::Get();
  const TelemetryStats& stats = stack->service().telemetry_stats();
  const net::AdmissionController& admission =
      stack->server_core()->admission();
  std::printf("\nconnections: %llu accepted; rx %llu bytes, tx %llu bytes\n",
              static_cast<unsigned long long>(
                  m.net_connections_accepted->Value()),
              static_cast<unsigned long long>(m.net_rx_bytes->Value()),
              static_cast<unsigned long long>(m.net_tx_bytes->Value()));
  std::printf("requests: %llu observe, %llu propose, %llu metrics, %llu "
              "health\n",
              static_cast<unsigned long long>(
                  m.net_requests_observe->Value()),
              static_cast<unsigned long long>(
                  m.net_requests_propose->Value()),
              static_cast<unsigned long long>(
                  m.net_requests_metrics->Value()),
              static_cast<unsigned long long>(m.net_requests_health->Value()));
  std::printf("shed: %llu tenant-limit, %llu global-admission (final rate "
              "%.3f, pressure %s); frame errors: %llu crc, %llu frame, %llu "
              "payload\n",
              static_cast<unsigned long long>(m.net_shed_tenant->Value()),
              static_cast<unsigned long long>(m.net_shed_global->Value()),
              admission.rate(), admission.pressure_source(),
              static_cast<unsigned long long>(m.net_bad_crc->Value()),
              static_cast<unsigned long long>(m.net_bad_frame->Value()),
              static_cast<unsigned long long>(m.net_bad_payload->Value()));
  // Histogram-derived latency quantiles (the Percentile helper): time in
  // the tuning service call, server side.
  std::printf("request latency: p50 %.6f s, p99 %.6f s over %llu requests; "
              "mean batch %.1f\n",
              m.net_request_seconds->Percentile(0.50),
              m.net_request_seconds->Percentile(0.99),
              static_cast<unsigned long long>(m.net_request_seconds->Count()),
              m.net_batch_size->Count() > 0
                  ? m.net_batch_size->Sum() /
                        static_cast<double>(m.net_batch_size->Count())
                  : 0.0);
  // The drain contract, stated in counters: deliveries == verdicts.
  const unsigned long long delivered =
      static_cast<unsigned long long>(m.queries_ended->Value());
  const unsigned long long verdicts = static_cast<unsigned long long>(
      stats.accepted.load(std::memory_order_relaxed) + stats.total_rejected());
  std::printf("service: %llu deliveries -> %llu verdicts%s\n", delivered,
              verdicts, delivered == verdicts ? "" : "  [MISMATCH]");
  return delivered == verdicts ? 0 : 1;
}

// One shared service driven by K tenant threads, or by the wire protocol
// with --listen; both run through the serving stack.
int RunServe(const Args& args) {
  net::ServingStackOptions options = ServingFlags(args);
  const bool listen = args.flags.count("listen") != 0;
  if (listen) {
    net::ServerOptions& server = options.listen.emplace();
    if (!ParseListen(args.Get("listen", ""), &server.host, &server.port)) {
      std::fprintf(stderr, "malformed --listen (want PORT or HOST:PORT)\n");
      return 2;
    }
    server.io_threads = args.GetInt("io-threads", 1);
    server.use_epoll = args.Get("poll", "") != "true";
    auto& core = options.server_core;
    core.tenant_limits.default_rate = args.GetDouble("tenant-rate", 0.0);
    core.tenant_limits.burst_seconds = args.GetDouble("tenant-burst-s", 0.25);
    core.admission.flush_p99_target =
        args.GetDouble("flush-p99-target", 0.050);
    core.admission.queue_depth_target =
        args.GetDouble("queue-target", core.admission.queue_depth_target);
    core.admin_token = args.Get("admin-token", "");
    core.max_batch =
        static_cast<size_t>(std::max(1, args.GetInt("net-batch", 64)));
  }
  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpcds");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 37));
  net::ServingStack stack(plans, nullptr, seed, std::move(options));
  if (!OpenStack(&stack, /*require_chain=*/false)) return 1;
  if (listen) {
    return FinishStack(&stack, DriveListen(args, &stack), args, "prom");
  }

  tools::ConcurrentDriverOptions driver_options;
  driver_options.threads = args.GetInt("threads", 4);
  driver_options.iterations = args.GetInt("iters", 20);
  driver_options.chaos = args.Get("chaos", "") == "true";
  driver_options.execution_latency_us = args.GetInt("latency-us", 0);
  driver_options.fluctuation_level = args.GetDouble("fl", 0.3);
  driver_options.spike_level = args.GetDouble("sl", 0.3);
  driver_options.seed = seed;

  std::printf("serving %zu signatures x %d iterations from %d tenant "
              "threads%s\n\n",
              plans.size(), driver_options.iterations, driver_options.threads,
              driver_options.chaos ? " under injected faults" : "");
  tools::ConcurrentDriver driver(&stack.service(), driver_options);
  const tools::ConcurrentDriverReport report = driver.Run(plans);
  std::printf("served %zu queries in %.2f s: %.0f queries/s\n", report.queries,
              report.wall_seconds, report.queries_per_second);
  if (driver_options.chaos) {
    std::printf("injected: %zu job failures, %zu dropped, %zu duplicated, "
                "%zu reordered, %zu corrupted events\n",
                report.job_failures, report.dropped_events,
                report.duplicated_events, report.reordered_events,
                report.corrupted_events);
  }
  return FinishStack(&stack, 0, args, "prom");
}

// Runtime control plane: one authenticated Admin frame against a running
// `serve --listen --admin-token=SECRET` process. Exactly one operation per
// invocation:
//   rockhopper admin --connect=HOST:PORT --token=SECRET \
//       --set-tenant-rate=RATE --tenant=ID      # pin one tenant's rate
//   rockhopper admin --connect=HOST:PORT --token=SECRET \
//       --set-budget=BYTES                      # shared memory budget
int RunAdmin(const Args& args) {
  std::string host;
  uint16_t port = 0;
  if (!ParseListen(args.Get("connect", ""), &host, &port) || port == 0) {
    std::fprintf(stderr, "admin requires --connect=HOST:PORT\n");
    return 2;
  }
  net::AdminRequest request;
  request.token = args.Get("token", "");
  const bool set_rate = args.flags.count("set-tenant-rate") != 0;
  const bool set_budget = args.flags.count("set-budget") != 0;
  if (set_rate == set_budget) {
    std::fprintf(stderr,
                 "admin requires exactly one of --set-tenant-rate=RATE "
                 "(with --tenant=ID) or --set-budget=BYTES\n");
    return 2;
  }
  if (set_rate) {
    request.op = net::AdminOp::kSetTenantRate;
    request.tenant = static_cast<uint32_t>(args.GetInt("tenant", 0));
    request.value = args.GetDouble("set-tenant-rate", 0.0);
  } else {
    request.op = net::AdminOp::kSetSharedBudget;
    request.value = static_cast<double>(
        std::strtoull(args.Get("set-budget", "0").c_str(), nullptr, 10));
  }

  net::Client client;
  if (Status st = client.Connect(host, port); !st.ok()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                 st.ToString().c_str());
    return 1;
  }
  client.SetRecvTimeout(args.GetInt("timeout-ms", 5000));
  net::Client::Response response;
  if (Status st = client.Call(net::Verb::kAdmin, 0,
                              net::EncodeAdminPayload(request), &response);
      !st.ok()) {
    std::fprintf(stderr, "admin call failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("admin: %s\n", net::WireStatusName(response.status));
  if (response.status == net::WireStatus::kUnauthorized) {
    std::fprintf(stderr,
                 "server rejected the token (started with --admin-token?)\n");
  }
  return response.status == net::WireStatus::kOk ? 0 : 1;
}

// Wire-protocol load generator: open-loop (Poisson) or closed-loop traffic
// against a `serve --listen` process, per-tenant mixes, client-observed
// latency percentiles. --json emits one machine-readable line for the bench
// harness.
int RunLoadgen(const Args& args) {
  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpcds");
  std::vector<const sparksim::QueryPlan*> plan_ptrs;
  const int plan_limit = args.GetInt("plans", 0);
  for (const sparksim::QueryPlan& plan : plans) {
    if (plan_limit > 0 &&
        plan_ptrs.size() >= static_cast<size_t>(plan_limit)) {
      break;
    }
    plan_ptrs.push_back(&plan);
  }

  net::LoadGenOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (options.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }
  options.duration_s = args.GetDouble("duration-s", 5.0);
  options.propose_fraction = args.GetDouble("propose-fraction", 0.0);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  const int tenants = std::max(1, args.GetInt("tenants", 1));
  const double rate = args.GetDouble("rate", 0.0);
  const int concurrency = std::max(1, args.GetInt("concurrency", 1));
  for (int t = 1; t <= tenants; ++t) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(t);
    spec.rate = rate;
    spec.concurrency = concurrency;
    options.tenants.push_back(spec);
  }
  // One extra open-loop aggressor on top of the polite tenants — the
  // noisy-neighbor fairness experiment.
  const double noisy_rate = args.GetDouble("noisy-rate", 0.0);
  if (noisy_rate > 0.0) {
    net::TenantSpec spec;
    spec.tenant = static_cast<uint32_t>(tenants + 1);
    spec.rate = noisy_rate;
    options.tenants.push_back(spec);
  }

  auto result = net::RunLoadGen(options, plan_ptrs);
  if (!result.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const net::LoadGenReport& report = result.value();

  if (args.Get("json", "") == "true") {
    std::printf("{\"elapsed_s\":%.3f,\"sent\":%llu,\"ok\":%llu,"
                "\"busy\":%llu,\"errors\":%llu,\"offered_qps\":%.1f,"
                "\"achieved_qps\":%.1f,\"p50\":%.6f,\"p99\":%.6f,"
                "\"fell_behind\":%s,\"tenants\":[",
                report.elapsed_s,
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.busy),
                static_cast<unsigned long long>(report.errors),
                report.offered_qps, report.achieved_qps, report.p50,
                report.p99, report.fell_behind ? "true" : "false");
    for (size_t i = 0; i < report.tenants.size(); ++i) {
      const net::TenantReport& tenant = report.tenants[i];
      std::printf("%s{\"tenant\":%u,\"sent\":%llu,\"ok\":%llu,"
                  "\"busy\":%llu,\"errors\":%llu,\"ok_qps\":%.1f,"
                  "\"p50\":%.6f,\"p99\":%.6f}",
                  i == 0 ? "" : ",", tenant.tenant,
                  static_cast<unsigned long long>(tenant.sent),
                  static_cast<unsigned long long>(tenant.ok),
                  static_cast<unsigned long long>(tenant.busy),
                  static_cast<unsigned long long>(tenant.errors),
                  tenant.ok_qps, tenant.p50, tenant.p99);
    }
    std::printf("]}\n");
  } else {
    std::printf("loadgen: %.2f s, %llu sent, %llu ok, %llu busy, %llu "
                "errors\n",
                report.elapsed_s,
                static_cast<unsigned long long>(report.sent),
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.busy),
                static_cast<unsigned long long>(report.errors));
    std::printf("throughput: offered %.1f q/s, achieved %.1f q/s; latency "
                "p50 %.6f s, p99 %.6f s%s\n",
                report.offered_qps, report.achieved_qps, report.p50,
                report.p99,
                report.fell_behind ? "  [sender fell behind schedule]" : "");
    for (const net::TenantReport& tenant : report.tenants) {
      std::printf("tenant %u: %llu sent, %llu ok (%.1f q/s), %llu busy, "
                  "%llu errors, p99 %.6f s\n",
                  tenant.tenant,
                  static_cast<unsigned long long>(tenant.sent),
                  static_cast<unsigned long long>(tenant.ok), tenant.ok_qps,
                  static_cast<unsigned long long>(tenant.busy),
                  static_cast<unsigned long long>(tenant.errors),
                  tenant.p99);
    }
  }
  return report.ok == 0 ? 1 : 0;
}

// Deterministic whole-service simulation (src/sim): each seed drives the
// multi-tenant service through a crash, recovery, and a second serving
// phase, checking the cross-layer invariants; --seeds sweeps a range and
// stops at the first violating seed.
int RunSimulate(const Args& args) {
  sim::SimulationOptions options;
  options.tenants = args.GetInt("tenants", 4);
  options.events_per_tenant = args.GetInt("events", 32);
  options.crash_fraction = args.GetDouble("crash-frac", 0.6);
  options.buggify = args.Get("no-buggify", "") != "true";
  options.chaos = args.Get("no-chaos", "") != "true";
  options.scratch_dir = args.Get("scratch", "");
  const std::string trace_path = args.Get("trace", "");

  uint64_t lo = 0, hi = 0;
  const std::string seeds_flag = args.Get("seeds", "");
  if (seeds_flag.empty()) {
    lo = hi = static_cast<uint64_t>(args.GetInt("seed", 1));
  } else if (!ParseSeedRange(seeds_flag, &lo, &hi)) {
    std::fprintf(stderr, "simulate: bad --seeds (want A..B): %s\n",
                 seeds_flag.c_str());
    return 2;
  }

  bool warned_not_compiled = false;
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    options.seed = seed;
    if (!trace_path.empty()) {
      options.trace_path = lo == hi
                               ? trace_path
                               : trace_path + "." + std::to_string(seed);
    }
    const sim::SimulationReport report = sim::RunSimulation(options);
    std::printf("%s\n", report.Summary().c_str());
    if (options.buggify && !report.buggify_compiled && !warned_not_compiled) {
      std::fprintf(stderr,
                   "note: built without -DROCKHOPPER_SIM=ON; Buggify fault "
                   "sections are compiled out\n");
      warned_not_compiled = true;
    }
    if (!report.passed()) {
      std::fprintf(stderr,
                   "invariant violation at seed %llu\n"
                   "reproduce with: rockhopper simulate --seed=%llu\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      return 1;
    }
  }
  return 0;
}

// Replays a recorded trace twice into identically-seeded fresh services and
// verifies both replays land on the same state digest and the same metric
// deltas — the determinism contract that makes a recorded failure a
// debuggable artifact instead of a one-off.
int RunReplay(const Args& args) {
  const std::string trace_path = args.Get("trace", "");
  if (trace_path.empty()) {
    std::fprintf(stderr, "replay requires --trace=FILE\n");
    return 2;
  }
  auto trace = sim::TraceReplayer::Read(trace_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const std::vector<sparksim::QueryPlan> plans = SuitePlans(args, "tpch");
  std::vector<uint64_t> signatures;
  for (const sparksim::QueryPlan& plan : plans) {
    signatures.push_back(plan.Signature());
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  // The counters whose per-replay deltas must match exactly.
  const std::pair<const char*, const char*> kCounters[] = {
      {"rockhopper_queries_started_total", ""},
      {"rockhopper_queries_ended_total", ""},
      {"rockhopper_telemetry_events_total", "verdict=\"accepted\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_nonfinite\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_nonpositive\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_duplicate\""},
      {"rockhopper_telemetry_events_total", "verdict=\"rejected_config\""},
  };
  std::string digests[2];
  std::vector<double> deltas[2];
  sim::TraceReplayReport reports[2];
  for (int pass = 0; pass < 2; ++pass) {
    const common::MetricsSnapshot before =
        common::MetricsRegistry::Default().Snapshot();
    TuningService service(space, nullptr, {}, seed);
    auto report = sim::TraceReplayer::Replay(*trace, &service, plans);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    reports[pass] = *report;
    digests[pass] = sim::DigestServiceState(service, signatures);
    const common::MetricsSnapshot after =
        common::MetricsRegistry::Default().Snapshot();
    for (const auto& [name, labels] : kCounters) {
      deltas[pass].push_back(after.Value(name, labels) -
                             before.Value(name, labels));
    }
  }
  std::printf("replayed %zu records (%zu proposals, %zu deliveries, %zu "
              "unknown signatures) twice\n",
              trace->records.size(), reports[0].proposals, reports[0].events,
              reports[0].unknown_signatures);
  if (digests[0] != digests[1]) {
    std::fprintf(stderr, "FAIL: replay diverged: digest %s vs %s\n",
                 digests[0].c_str(), digests[1].c_str());
    return 1;
  }
  if (deltas[0] != deltas[1]) {
    std::fprintf(stderr, "FAIL: replay metric deltas diverged\n");
    return 1;
  }
  std::printf("PASS: both replays converged to digest %s with identical "
              "metric deltas\n",
              digests[0].c_str());
  return 0;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: rockhopper <command> [--flag=value ...]\n\n"
      "commands:\n"
      "  flight  run offline flighting, train + store the baseline model\n"
      "          flags: --suite=tpcds|tpch --configs=N --runs=N\n"
      "                 --generation=Random|LHS --max-samples=N --out=DIR\n"
      "  tune    tune a suite online with the stored baseline\n"
      "          flags: --suite=tpch|tpcds --iters=N --model-dir=DIR\n"
      "                 --fl=F --sl=F --journal=FILE --seed=N\n"
      "  report  print per-signature monitoring dashboards from a journal\n"
      "          flags: --journal=FILE\n"
      "  simulate run the deterministic whole-service simulation harness\n"
      "          flags: --seed=N --seeds=A..B (sweep a range; exits non-zero\n"
      "                 with the first violating seed) --tenants=N --events=N\n"
      "                 --crash-frac=F --no-buggify --no-chaos\n"
      "                 --scratch=DIR --trace=FILE\n"
      "  replay  replay a recorded simulation trace twice, verify identical "
      "state\n"
      "          flags: --trace=FILE --suite=tpch|tpcds --seed=N\n"
      "  recover restore tuning state from the journal chain (checkpoint +\n"
      "          delta chain + sealed segments + live tail)\n"
      "          flags: --journal=FILE --suite=tpch|tpcds --seed=N\n"
      "                 --lazy-recovery (cold pointers, fault in on touch)\n"
      "  neighbors  print a signature's k nearest registered signatures in\n"
      "          the transfer tier's embedding space, with distances and\n"
      "          incumbent configs (debugging bad warm starts)\n"
      "          usage: rockhopper neighbors <signature> --journal=FILE\n"
      "          flags: --suite=tpch|tpcds --k=N --seed=N\n"
      "  checkpoint  compact a journal offline: absorb sealed segments into\n"
      "          the checkpoint chain, truncate the absorbed prefix\n"
      "          flags: --journal=FILE\n"
      "  serve   drive one shared service from concurrent tenant threads\n"
      "          flags: --suite=tpcds|tpch --threads=N --iters=N --chaos\n"
      "                 --latency-us=N --fl=F --sl=F --seed=N\n"
      "                 --metrics-format=prom|json|off\n"
      "          with --listen[=PORT|HOST:PORT] serve the binary wire\n"
      "          protocol over TCP instead (epoll event loop; Ctrl-C or\n"
      "          --duration-s=N drains and prints the exit report):\n"
      "                 --listen[=PORT|HOST:PORT] --duration-s=N\n"
      "                 --drain-ms=N --io-threads=N --poll (force poll(2))\n"
      "                 --tenant-rate=R --tenant-burst-s=S (token buckets)\n"
      "                 --flush-p99-target=S --queue-target=N (admission)\n"
      "                 --net-batch=N --admin-token=SECRET (Admin verb)\n"
      "  serving flags (serve, serve --listen, tune, recover): --journal=FILE\n"
      "          resumes from the chain, then appends through group commit;\n"
      "                 --checkpoint-interval=N --memory-budget=BYTES\n"
      "                 --state-dir=DIR --state-budget-fraction=F\n"
      "                 --obs-window=N --idle-ttl=N --sweep-interval-ms=N\n"
      "                 --compress=false --lazy-recovery\n"
      "  admin   send one authenticated runtime-control frame to a server\n"
      "          flags: --connect=HOST:PORT --token=SECRET and one of\n"
      "                 --set-tenant-rate=RATE --tenant=ID (0 = unlimited)\n"
      "                 --set-budget=BYTES (shared memory budget; 0 = off)\n"
      "  loadgen drive the wire protocol against a serve --listen process\n"
      "          flags: --host=H --port=N (required) --duration-s=N\n"
      "                 --tenants=N --rate=R (per-tenant open-loop Poisson\n"
      "                 q/s; 0 = closed loop) --concurrency=N\n"
      "                 --noisy-rate=R (extra aggressor tenant)\n"
      "                 --propose-fraction=F --plans=N --seed=N --json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.command == "flight") return RunFlight(args);
  if (args.command == "tune") return RunTune(args);
  if (args.command == "report") return RunReport(args);
  if (args.command == "simulate") return RunSimulate(args);
  if (args.command == "replay") return RunReplay(args);
  if (args.command == "recover") return RunRecover(args);
  if (args.command == "neighbors") return RunNeighbors(args);
  if (args.command == "checkpoint") return RunCheckpoint(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "admin") return RunAdmin(args);
  if (args.command == "loadgen") return RunLoadgen(args);
  PrintUsage();
  return args.command.empty() ? 1 : 2;
}
