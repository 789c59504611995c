// servebench: one benchmark of the Rockhopper tuning service. Starts the
// serving stack in-process on a loopback ephemeral port, wired as
// `rockhopper serve --listen` wires it, and drives it through net::Client
// connections with sparksim traffic. Workloads, metrics and the traced run
// are described in servebench/README.md.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --workdir DIR [--source-id ID]
//
// Prints key=value lines, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/tracing.h"
#include "inputs.h"
#include "load.h"
#include "spans.h"
#include "stack.h"
#include "stats.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using rockhopper::Status;

// --- workloads ------------------------------------------------------------

constexpr int kClients = 2;

/// One client connection's traffic.
struct ClientShape {
  /// Cycles (kCycle) or frames (kFlood) kept in flight.
  int in_flight;
  /// kFlood: one Propose probe per this many requests (0: none).
  int propose_every;
  /// Whether this connection's latencies make the workload's latency
  /// metrics.
  bool timed;
};

struct Workload {
  const char* name;
  size_t population;
  Traffic traffic;
  ClientShape clients[kClients];
  /// Unmeasured requests per client between setup and the measured phase,
  /// so the phase starts past connection set-up.
  uint64_t ramp_requests;
  bool restart;
};

// tune_cycle: the online loop, 2 connections x 4 cycles.
// ingest_flood: the same population behind a telemetry bus. Connection 0
//   keeps 128 observes in flight, so its session batches fill; its replies
//   wait behind the window (Little's law), so they are not timed. Connection
//   1 is a reporter with 4 frames in flight, every 8th a Propose probe; its
//   latencies are the workload's.
// restart_recover: restart over 30k lazily recovered signatures; cycles
//   fault signatures in by replay while delta checkpoints run.
constexpr Workload kWorkloads[] = {
    {"tune_cycle", 1500, Traffic::kCycle, {{4, 0, true}, {4, 0, true}}, 10000,
     false},
    {"ingest_flood", 1500, Traffic::kFlood, {{128, 0, false}, {4, 8, true}},
     10000, false},
    {"restart_recover", 30000, Traffic::kCycle, {{4, 0, true}, {4, 0, true}},
     20000, true},
};

constexpr int kSetupTrials = 3;
/// In-process warm-up cycles per signature: one more than the centroid
/// learner's 15-observation window, so every window is full.
constexpr int kWarmupPasses = 16;
/// restart_recover: TuningService::Checkpoint() after this many accepted
/// observes, as serve --checkpoint-interval does. The first checkpoint after
/// the restart (which absorbs the recovered chain's tail) closes the ramp.
/// This cadence keeps a run to a handful of checkpoints (about 10 at 45k
/// ok/s), so the delta chain collapses into a full image once or twice.
constexpr uint64_t kCheckpointEvery = 65536;
/// restart_recover traffic: the share of cycles that first-touch a
/// recovered signature, and the per-thread window of recent first touches
/// the other cycles revisit. Above 1%, so the Propose p99 falls among the
/// fault-ins rather than on the edge between them and resident hits. With
/// the 30k population a 30-s run at 50k ok/s uses about 40% of each
/// client's half of the touch order, so a program up to about 2.5 times
/// faster still first-touches only recovered signatures
/// (phase.first_touches_fresh).
constexpr double kFirstTouchShare = 0.015;
constexpr size_t kRecentWindow = 1024;
/// restart_recover tuned_speedup: signatures replayed in a twin service.
constexpr size_t kSpeedupSample = 512;

constexpr uint64_t kWarmupTag = 0x7761726d7570;  // "warmup"
constexpr uint64_t kTouchTag = 0x746f756368;     // "touch"
constexpr double kMiB = 1024.0 * 1024.0;

// --- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || args->seconds < 1 ||
          args->seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

// --- process and machine context --------------------------------------------

double VmRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

/// Machine-wide CPU time from /proc/stat, in ticks: all of it, and the part
/// the hypervisor ran other guests on this machine's vCPUs (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

bool SanitizersCompiledIn() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// --- registry deltas ----------------------------------------------------------

struct Hist {
  uint64_t count = 0;
  double sum = 0.0;
};

Hist Read(const rockhopper::common::Histogram* h) {
  return {h->Count(), h->Sum()};
}

/// The program's own instruments, read before and after a span of work.
struct Registry {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_errors = 0;
  uint64_t evictions = 0;
  uint64_t faultins = 0;
  uint64_t shed = 0;
  Hist sanitize, failure_policy, journal_stage, tune, ingest, flush,
      journal_batch, faultin, compress_seconds, compress_ratio, net_batch;

  static Registry Take() {
    const core::ServiceMetrics& m = core::ServiceMetrics::Get();
    Registry r;
    r.accepted = m.telemetry_accepted->Value();
    r.rejected = m.telemetry_rejected_nonfinite->Value() +
                 m.telemetry_rejected_nonpositive->Value() +
                 m.telemetry_rejected_duplicate->Value() +
                 m.telemetry_rejected_config->Value();
    r.journal_appends = m.journal_appends->Value();
    r.journal_errors = m.journal_errors->Value();
    r.evictions = m.state_evictions->Value();
    r.faultins = m.state_faultins->Value();
    r.shed = m.net_shed_tenant->Value() + m.net_shed_global->Value();
    r.sanitize = Read(m.stage_sanitize);
    r.failure_policy = Read(m.stage_failure_policy);
    r.journal_stage = Read(m.stage_journal);
    r.tune = Read(m.stage_tune);
    r.ingest = Read(m.ingest_seconds);
    r.flush = Read(m.journal_flush_seconds);
    r.journal_batch = Read(m.journal_batch_size);
    r.faultin = Read(m.state_faultin_seconds);
    r.compress_seconds = Read(m.compress_seconds);
    r.compress_ratio = Read(m.compress_ratio);
    r.net_batch = Read(m.net_batch_size);
    return r;
  }
};

/// Mean of a histogram over the interval between two reads.
double MeanOf(const Hist& before, const Hist& after) {
  const uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : (after.sum - before.sum) / static_cast<double>(n);
}

// --- correctness ----------------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, bool>> items;

  void Expect(const std::string& name, bool ok) { items.emplace_back(name, ok); }
  bool all_ok() const {
    return std::all_of(items.begin(), items.end(),
                       [](const auto& item) { return item.second; });
  }
};

/// After a trial's Shutdown: journal appends equal accepted observes and no
/// record was lost.
void CheckJournal(Checks* checks, const std::string& tag, const Status& shutdown,
                  const Registry& before, const Registry& after,
                  uint64_t expected_accepted, uint64_t service_journal_errors) {
  checks->Expect(tag + ".shutdown_ok", shutdown.ok());
  const uint64_t accepted = after.accepted - before.accepted;
  checks->Expect(tag + ".accepted_equals_sent", accepted == expected_accepted);
  checks->Expect(tag + ".journal_appends_equal_accepted",
                 after.journal_appends - before.journal_appends == accepted);
  checks->Expect(tag + ".journal_errors_zero",
                 after.journal_errors == before.journal_errors &&
                     service_journal_errors == 0);
}

// --- setup work -------------------------------------------------------------------

struct WarmupTiming {
  std::vector<uint32_t> start_ns;  ///< OnQueryStart, last pass
  std::vector<uint32_t> end_ns;    ///< OnQueryEnd, last pass
  uint64_t observes = 0;
};

/// kWarmupPasses in-process cycles per signature, pass by pass: Propose,
/// execute in sparksim with Eq. 8 noise, deliver the run.
WarmupTiming WarmUp(core::TuningService* service, const Population& population,
                    uint64_t seed, SpanLog* log) {
  WarmupTiming timing;
  sparksim::SparkSimulator sim(ClusterOptions(seed ^ kWarmupTag));
  uint64_t event_id = uint64_t{0xFFFF} << 48;
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    const bool last = pass + 1 == kWarmupPasses;
    for (const sparksim::QueryPlan& plan : population.plans) {
      const int64_t t0 = NowNs();
      const sparksim::ConfigVector config =
          service->OnQueryStart(plan, plan.LeafInputBytes(1.0));
      const int64_t t1 = NowNs();
      const sparksim::ExecutionResult run = sim.ExecuteQuery(plan, config, 1.0);
      core::QueryEndEvent event;
      event.event_id = ++event_id;
      event.config = config;
      event.data_size = run.input_bytes;
      event.runtime = run.runtime_seconds;
      event.failed = run.failed;
      event.failure = run.failure;
      const int64_t t2 = NowNs();
      service->OnQueryEnd(plan, event);
      const int64_t t3 = NowNs();
      ++timing.observes;
      log->Add(0, 0, SpanName::kWarmupStart, t0, t1);
      log->Add(0, 0, SpanName::kWarmupEnd, t2, t3);
      if (last) {
        timing.start_ns.push_back(static_cast<uint32_t>(t1 - t0));
        timing.end_ns.push_back(static_cast<uint32_t>(t3 - t2));
      }
    }
  }
  return timing;
}

/// Geometric mean over `sample` of noise-free sparksim runtime at the
/// defaults divided by runtime at the service's IncumbentConfig.
double TunedSpeedup(const core::TuningService& service,
                    const std::vector<const sparksim::QueryPlan*>& sample) {
  sparksim::SparkSimulator::Options options;
  options.noise = sparksim::NoiseParams::None();
  sparksim::SparkSimulator sim(options);
  const sparksim::ConfigVector defaults =
      sparksim::QueryLevelSpace().Defaults();
  double log_sum = 0.0;
  for (const sparksim::QueryPlan* plan : sample) {
    auto incumbent = service.IncumbentConfig(plan->Signature());
    const sparksim::ConfigVector& config =
        incumbent.ok() ? *incumbent : defaults;
    const double base = sim.ExecuteQuery(*plan, defaults, 1.0).noise_free_seconds;
    const double tuned = sim.ExecuteQuery(*plan, config, 1.0).noise_free_seconds;
    log_sum += std::log(base / tuned);
  }
  return sample.empty() ? 0.0 : std::exp(log_sum / sample.size());
}

// --- measured phase -----------------------------------------------------------------

struct CheckpointTally {
  uint64_t calls = 0;
  uint64_t failures = 0;
  int64_t ns = 0;
  uint64_t bytes = 0;
};

struct Phase {
  /// Every client's counts and layer sums; its latency vectors stay empty.
  LoadResult total;
  /// Each client's kOk latencies, in reply order.
  std::vector<std::vector<uint32_t>> propose_ns;
  std::vector<std::vector<uint32_t>> observe_ns;
  double seconds = 0.0;
  double ok_qps = 0.0;
  CheckpointTally checkpoints;
};

void Merge(LoadResult* into, const LoadResult& from) {
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->busy += from.busy;
  into->errors += from.errors;
  into->unanswered += from.unanswered;
  into->propose_ok += from.propose_ok;
  into->observe_ok += from.observe_ok;
  into->bad_configs += from.bad_configs;
  into->rejected_verdicts += from.rejected_verdicts;
  into->bad_replies += from.bad_replies;
  into->first_touches += from.first_touches;
  into->repeated_first_touches += from.repeated_first_touches;
  into->re_touches += from.re_touches;
  for (auto [a, b] : {std::pair{&into->encode_propose, &from.encode_propose},
                      {&into->encode_observe, &from.encode_observe},
                      {&into->send, &from.send},
                      {&into->recv, &from.recv},
                      {&into->decode_propose, &from.decode_propose},
                      {&into->decode_observe, &from.decode_observe},
                      {&into->sparksim, &from.sparksim}}) {
    a->ns += b->ns;
    a->count += b->count;
  }
  into->last_response_ns =
      std::max(into->last_response_ns, from.last_response_ns);
  if (into->error.empty()) into->error = from.error;
}

/// Calls TuningService::Checkpoint() and tallies it.
void CheckpointNow(core::TuningService* service, SpanLog* main_log,
                   CheckpointTally* tally) {
  const int64_t t0 = NowNs();
  auto report = service->Checkpoint();
  const int64_t t1 = NowNs();
  main_log->Add(0, 0, SpanName::kCheckpoint, t0, t1);
  ++tally->calls;
  tally->ns += t1 - t0;
  if (report.ok()) {
    tally->bytes += report->bytes_written;
  } else {
    ++tally->failures;
    std::fprintf(stderr, "checkpoint failed: %s\n",
                 report.status().ToString().c_str());
  }
}

/// One closed-loop phase: both clients run until the deadline (or until
/// each sent `max_requests`) and drain. With `next_checkpoint` the main
/// thread meanwhile calls Checkpoint() every kCheckpointEvery accepted
/// observes.
Phase RunPhase(core::TuningService* service,
               std::vector<std::unique_ptr<LoadClient>>* clients,
               std::vector<std::unique_ptr<SpanLog>>* logs, SpanLog* main_log,
               int64_t duration_ns, uint64_t max_requests,
               uint64_t* next_checkpoint) {
  Phase phase;
  const int64_t start = NowNs();
  const int64_t deadline = start + duration_ns;
  std::atomic<int> running{static_cast<int>(clients->size())};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back([&, i] {
      (*clients)[i]->Run(deadline, max_requests, (*logs)[i].get());
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  while (next_checkpoint != nullptr &&
         running.load(std::memory_order_acquire) > 0) {
    const uint64_t accepted =
        service->telemetry_stats().accepted.load(std::memory_order_relaxed);
    if (accepted >= *next_checkpoint && NowNs() < deadline) {
      CheckpointNow(service, main_log, &phase.checkpoints);
      *next_checkpoint += kCheckpointEvery;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& thread : threads) thread.join();
  for (auto& client : *clients) {
    LoadResult result = client->TakeResult();
    phase.propose_ns.push_back(std::move(result.propose_ns));
    phase.observe_ns.push_back(std::move(result.observe_ns));
    Merge(&phase.total, result);
  }
  phase.seconds = (phase.total.last_response_ns - start) / 1e9;
  phase.ok_qps = phase.seconds > 0.0 ? phase.total.ok / phase.seconds : 0.0;
  return phase;
}

// --- output ------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintLatency(const char* verb, const LatencySummary& s) {
  std::printf(
      "latency verb=%s n=%zu slices=%zu p50_us=%.2f p99_us=%.2f "
      "p99_supported=%d top_quantile=p%.4f top_us=%.2f mean_us=%.2f\n",
      verb, s.count, s.slices, s.p50_us, s.p99_us, s.p99_supported ? 1 : 0,
      s.top_q_ppm / 1e4, s.top_us, s.mean_us);
}

/// Nearest-rank median of the setup trials (kSetupTrials is odd).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return QuantileSorted(v, 500000);
}

/// Bytes per record of the (closed) live journal: its size past the header
/// line divided by the record lines it holds.
double JournalBytesPerRecord(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  uint64_t bytes = 0;
  uint64_t records = 0;
  while (std::getline(in, line)) {
    bytes += line.size() + 1;
    ++records;
  }
  return records == 0 ? 0.0 : static_cast<double>(bytes) / records;
}

/// Inputs that do not depend on the service, built from the seed before
/// any setup clock starts.
struct Inputs {
  Population population;
  std::optional<ChainInfo> chain;   ///< restart_recover only
  std::vector<uint32_t> touch_order;  ///< restart_recover only
};

rockhopper::Result<Inputs> MakeInputs(const Workload& workload,
                                      const Args& args) {
  Inputs inputs{MakePopulation(workload.population, args.seed), {}, {}};
  if (!workload.restart) return inputs;
  auto chain = EnsureChain(args.workdir + "/cache", inputs.population,
                           args.seed);
  if (!chain.ok()) return chain.status();
  inputs.chain = *std::move(chain);
  inputs.touch_order.resize(inputs.population.plans.size());
  for (size_t i = 0; i < inputs.touch_order.size(); ++i) {
    inputs.touch_order[i] = static_cast<uint32_t>(i);
  }
  common::Rng rng(common::SplitMix64(args.seed ^ kTouchTag));
  rng.Shuffle(&inputs.touch_order);
  return inputs;
}

/// What the setup trials leave behind: their timings and the last trial's
/// stack, which serves the measured phase.
struct Setup {
  std::vector<double> seconds;
  /// VmRSS after the first trial, the only one that starts from a process
  /// holding nothing but its inputs; later trials inherit the heap the
  /// earlier ones left behind.
  double rss_mib = 0.0;
  std::unique_ptr<ServingStack> stack;
  Registry served_trial_start;
  WarmupTiming warmup;
  core::TuningService::RecoveryReport recovery;
  double recover_s = 0.0;
};

/// Sets the stack up kSetupTrials times from nothing, checking each trial;
/// every trial but the last is shut down again.
rockhopper::Result<Setup> SetUp(const Workload& workload, const Args& args,
                                const Inputs& inputs,
                                const std::string& trial_dir,
                                SpanLog* main_log, Checks* checks,
                                double* settle_s) {
  Setup setup;
  std::error_code ec;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    const std::string tag = "trial" + std::to_string(trial);
    RemoveTree(trial_dir);
    fs::create_directories(trial_dir, ec);
    if (inputs.chain) {
      auto placed = CopyChain(*inputs.chain, trial_dir);
      if (!placed.ok()) return placed.status();
    }
    *settle_s += SettleFilesystem(args.workdir);
    ::malloc_trim(0);
    const Registry start = Registry::Take();
    const int64_t t0 = NowNs();
    auto stack = std::make_unique<ServingStack>(trial_dir, workload.restart,
                                                &inputs.population);
    int64_t rec0 = 0;
    int64_t rec1 = 0;
    ROCKHOPPER_RETURN_IF_ERROR(stack->Prepare(&setup.recovery, &rec0, &rec1));
    if (!workload.restart) {
      setup.warmup = WarmUp(&stack->service(), inputs.population, args.seed,
                            main_log);
    }
    ROCKHOPPER_RETURN_IF_ERROR(stack->StartServer());
    const int64_t t1 = NowNs();
    setup.seconds.push_back((t1 - t0) / 1e9);
    const double rss_mib = VmRssMib();
    if (trial == 0) setup.rss_mib = rss_mib;
    if (inputs.chain) {
      const ChainInfo& chain = *inputs.chain;
      const core::TuningService::RecoveryReport& r = setup.recovery;
      main_log->Add(0, 0, SpanName::kRecover, rec0, rec1);
      setup.recover_s = (rec1 - rec0) / 1e9;
      checks->Expect(tag + ".recovery.signatures_restored",
                     r.signatures_restored == chain.signatures);
      checks->Expect(tag + ".recovery.records_replayed",
                     r.observations_replayed == chain.records);
      checks->Expect(tag + ".recovery.tail_records",
                     r.tail_records == chain.tail_records &&
                         r.segments_replayed == chain.segments);
      checks->Expect(tag + ".recovery.unknown_zero",
                     r.unknown_signatures == 0);
      checks->Expect(tag + ".recovery.clean",
                     r.journal_clean && r.observations_dropped == 0);
    }
    std::printf("setup trial=%d setup_s=%.4f rss_mib=%.1f\n", trial,
                setup.seconds.back(), rss_mib);
    if (trial + 1 < kSetupTrials) {
      const Status shutdown = stack->Stop();
      CheckJournal(checks, tag, shutdown, start, Registry::Take(),
                   setup.warmup.observes, stack->service().journal_errors());
    } else {
      setup.stack = std::move(stack);
      setup.served_trial_start = start;
    }
  }
  return setup;
}

/// Per-layer metrics of the traced half (see README.md for definitions).
std::vector<Metric> PerLayerMetrics(const Phase& traced,
                                    const Phase& untraced,
                                    const Registry& before,
                                    const Registry& after,
                                    const LatencySummary& propose,
                                    const LatencySummary& observe,
                                    const Setup& setup,
                                    const core::TierStats& tier,
                                    double observation_mib,
                                    double bytes_per_record) {
  const LoadResult& r = traced.total;
  const double ingest_us = MeanOf(before.ingest, after.ingest) * 1e6;
  const uint64_t faultins = after.faultins - before.faultins;
  const uint64_t evictions = after.evictions - before.evictions;
  const double kreq = r.ok / 1000.0;
  std::vector<uint32_t> warm_start = setup.warmup.start_ns;
  std::vector<uint32_t> warm_end = setup.warmup.end_ns;
  const CheckpointTally& ckpt = traced.checkpoints;
  const auto per_call = [&ckpt](double total) {
    return ckpt.calls == 0 ? 0.0 : total / static_cast<double>(ckpt.calls);
  };
  return {
      {"net.client.encode_us", r.encode_observe.MeanUs(), "us"},
      {"net.client.decode_us", r.decode_observe.MeanUs(), "us"},
      {"net.server_core.batch_size", MeanOf(before.net_batch, after.net_batch),
       "count"},
      {"net.unattributed_us",
       observe.mean_us - r.encode_observe.MeanUs() - ingest_us -
           r.decode_observe.MeanUs(),
       "us"},
      {"net.admission.shed", static_cast<double>(after.shed - before.shed),
       "count"},
      {"net.observe_rtt_us", observe.mean_us, "us"},
      {"net.propose_rtt_us", propose.mean_us, "us"},
      {"core.tuning_service.propose_us", Summarize(&warm_start).p50_us, "us"},
      {"core.tuning_service.observe_us", Summarize(&warm_end).p50_us, "us"},
      {"core.ingest_pipeline.sanitize_us",
       MeanOf(before.sanitize, after.sanitize) * 1e6, "us"},
      {"core.ingest_pipeline.failure_policy_us",
       MeanOf(before.failure_policy, after.failure_policy) * 1e6, "us"},
      {"core.ingest_pipeline.journal_us",
       MeanOf(before.journal_stage, after.journal_stage) * 1e6, "us"},
      {"core.ingest_pipeline.tune_us", MeanOf(before.tune, after.tune) * 1e6,
       "us"},
      {"core.ingest_pipeline.ingest_us", ingest_us, "us"},
      {"core.ingest_pipeline.rejected",
       static_cast<double>(after.rejected - before.rejected), "count"},
      {"core.journal.flush_us", MeanOf(before.flush, after.flush) * 1e6, "us"},
      {"core.journal.batch_size",
       MeanOf(before.journal_batch, after.journal_batch), "count"},
      {"core.journal.bytes_per_record", bytes_per_record, "B"},
      {"core.checkpoint.recover_s", setup.recover_s, "s"},
      {"core.checkpoint.recover_records_per_s",
       setup.recover_s > 0.0
           ? setup.recovery.observations_replayed / setup.recover_s
           : 0.0,
       "1/s"},
      {"core.checkpoint.delta_ms", per_call(ckpt.ns / 1e6), "ms"},
      {"core.checkpoint.delta_bytes",
       per_call(static_cast<double>(ckpt.bytes)), "B"},
      {"core.signature_shard.faultin_us",
       MeanOf(before.faultin, after.faultin) * 1e6, "us"},
      {"core.signature_shard.faultins_per_kreq",
       kreq > 0 ? faultins / kreq : 0.0, "count"},
      {"core.signature_shard.evictions_per_kreq",
       kreq > 0 ? evictions / kreq : 0.0, "count"},
      {"core.signature_shard.hit_ratio",
       r.ok > 0 ? 1.0 - static_cast<double>(faultins) / r.ok : 0.0, "ratio"},
      {"core.signature_shard.resident_mib", tier.resident_bytes / kMiB, "MiB"},
      {"common.compress.encode_us",
       MeanOf(before.compress_seconds, after.compress_seconds) * 1e6, "us"},
      {"common.compress.ratio",
       MeanOf(before.compress_ratio, after.compress_ratio), "ratio"},
      {"core.observation.resident_mib", observation_mib, "MiB"},
      {"sparksim.execute_us", r.sparksim.MeanUs(), "us"},
      {"bench.trace_overhead",
       untraced.ok_qps > 0.0 ? traced.ok_qps / untraced.ok_qps : 0.0, "ratio"},
  };
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  std::printf(
      "context workload=%s seed=%llu seconds=%d trace=%d nproc=%u "
      "compiler=\"%s\" build_type=%s source_id=%s buggify=%s sanitize=%s "
      "sanitizers_compiled_in=%d workdir_fs=%s\n",
      workload->name, static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      __VERSION__, SERVEBENCH_BUILD_TYPE, args.source_id.c_str(),
      SERVEBENCH_SIM, SERVEBENCH_SANITIZE, SanitizersCompiledIn() ? 1 : 0,
      FilesystemType(args.workdir).c_str());

  const int64_t inputs_start = NowNs();
  auto made = MakeInputs(*workload, args);
  if (!made.ok()) {
    std::fprintf(stderr, "inputs: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const Inputs& inputs = *made;
  const Population& population = inputs.population;
  std::printf("inputs signatures=%zu chain_reused=%d inputs_s=%.3f\n",
              population.plans.size(),
              inputs.chain && inputs.chain->reused ? 1 : 0,
              (NowNs() - inputs_start) / 1e9);

  Checks checks;
  SpanLog main_log(args.trace, 0);
  const std::string trial_dir = args.workdir + "/trial";
  RemoveTree(trial_dir);
  double settle_s = SettleFilesystem(args.workdir);
  auto set_up = SetUp(*workload, args, inputs, trial_dir, &main_log, &checks,
                      &settle_s);
  if (!set_up.ok()) {
    std::fprintf(stderr, "setup: %s\n", set_up.status().ToString().c_str());
    return 1;
  }
  Setup& setup = *set_up;
  std::unique_ptr<ServingStack>& stack = setup.stack;
  core::TuningService& service = stack->service();

  // Between setup and the phase, outside every clock: tuning quality and
  // the bus's incumbents.
  double tuned_speedup = 0.0;
  std::vector<sparksim::ConfigVector> incumbents;
  if (!workload->restart) {
    std::vector<const sparksim::QueryPlan*> all;
    for (const sparksim::QueryPlan& plan : population.plans) all.push_back(&plan);
    tuned_speedup = TunedSpeedup(service, all);
    const sparksim::ConfigVector defaults =
        sparksim::QueryLevelSpace().Defaults();
    for (uint64_t signature : population.signatures) {
      auto incumbent = service.IncumbentConfig(signature);
      incumbents.push_back(incumbent.ok() ? *incumbent : defaults);
    }
  }
  const double observation_mib = service.observations().ApproxBytes() / kMiB;

  std::vector<std::unique_ptr<LoadClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    LoadOptions options;
    options.traffic = workload->traffic;
    options.in_flight = workload->clients[i].in_flight;
    options.timed = workload->clients[i].timed;
    options.port = stack->port();
    options.index = static_cast<uint32_t>(i);
    options.seed = args.seed;
    options.population = &population;
    options.incumbents = &incumbents;
    options.propose_every = workload->clients[i].propose_every;
    if (workload->restart) {
      options.mix.touch_order = &inputs.touch_order;
      options.mix.first_touch_share = kFirstTouchShare;
      options.mix.recent_window = kRecentWindow;
      options.mix.slice_offset = static_cast<size_t>(i);
      options.mix.slice_stride = kClients;
    }
    clients.push_back(std::make_unique<LoadClient>(options));
    if (Status st = clients.back()->Connect(); !st.ok()) {
      std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::unique_ptr<SpanLog>> untraced_logs;
  std::vector<std::unique_ptr<SpanLog>> traced_logs;
  for (int i = 0; i < kClients; ++i) {
    untraced_logs.push_back(std::make_unique<SpanLog>(false, i + 1));
    traced_logs.push_back(std::make_unique<SpanLog>(true, i + 1));
  }
  constexpr int64_t kNoDeadline = int64_t{120} * 1000000000;
  constexpr uint64_t kNoCap = ~uint64_t{0};
  // The ramp: fixed unmeasured work, then (restart_recover) the first
  // checkpoint after the restart.
  Phase ramp = RunPhase(&service, &clients, &untraced_logs, &main_log,
                        kNoDeadline, workload->ramp_requests, nullptr);
  if (workload->restart) CheckpointNow(&service, &main_log, &ramp.checkpoints);
  std::printf("ramp seconds=%.3f ok=%llu checkpoint_ms=%.1f\n", ramp.seconds,
              static_cast<unsigned long long>(ramp.total.ok),
              ramp.checkpoints.ns / 1e6);

  // The measured phase. A traced run measures its first half untraced (the
  // tracing-overhead baseline) and its second half traced; per-layer
  // metrics come from the traced half.
  const int64_t total_ns = int64_t{args.seconds} * 1000000000;
  uint64_t next_checkpoint =
      service.telemetry_stats().accepted.load() + kCheckpointEvery;
  uint64_t* checkpoints = workload->restart ? &next_checkpoint : nullptr;
  std::optional<Phase> baseline;
  Registry before = Registry::Take();
  core::TierStats tier_before = service.StateTierStats();
  if (args.trace) {
    baseline = RunPhase(&service, &clients, &untraced_logs, &main_log,
                        total_ns / 2, kNoCap, checkpoints);
    before = Registry::Take();
    tier_before = service.StateTierStats();
    for (auto& log : traced_logs) log->Reserve(1 << 22);
  }
  const CpuTicks cpu_before = ReadCpuTicks();
  const int64_t phase_start = NowNs();
  Phase phase = RunPhase(&service, &clients,
                         args.trace ? &traced_logs : &untraced_logs, &main_log,
                         args.trace ? total_ns - total_ns / 2 : total_ns,
                         kNoCap, checkpoints);
  const Registry after = Registry::Take();
  const core::TierStats tier_after = service.StateTierStats();
  const CpuTicks cpu_after = ReadCpuTicks();
  const double observation_end_mib =
      service.observations().ApproxBytes() / kMiB;
  const size_t observations_truncated =
      service.observations().TruncatedTotal();
  for (auto& client : clients) client->Close();

  const int64_t shutdown_start = NowNs();
  const Status shutdown = stack->Stop();
  main_log.Add(0, 0, SpanName::kShutdown, shutdown_start, NowNs());
  const Registry end = Registry::Take();
  uint64_t observes_ok = phase.total.observe_ok + ramp.total.observe_ok;
  if (baseline) observes_ok += baseline->total.observe_ok;
  CheckJournal(&checks, "final", shutdown, setup.served_trial_start, end,
               setup.warmup.observes + observes_ok, service.journal_errors());
  const double bytes_per_record = JournalBytesPerRecord(stack->journal_path());

  if (workload->restart) {
    // A twin service replays the same chain eagerly for a seeded sample:
    // the incumbents every recovered signature resumes from.
    common::Rng rng(common::SplitMix64(args.seed ^ kTouchTag ^ 1));
    std::vector<sparksim::QueryPlan> sample_plans;
    std::vector<const sparksim::QueryPlan*> sample;
    for (size_t i = 0; i < kSpeedupSample; ++i) {
      sample_plans.push_back(population.plans[rng.Index(population.plans.size())]);
    }
    const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
    core::TuningService twin(space, nullptr, core::TuningServiceOptions{},
                             kServiceSeed);
    auto replayed =
        twin.RecoverFromCheckpoint(inputs.chain->journal_path, sample_plans);
    checks.Expect("twin.recovered", replayed.ok());
    for (const sparksim::QueryPlan& plan : sample_plans) sample.push_back(&plan);
    tuned_speedup = TunedSpeedup(twin, sample);
  }

  // Correctness of the measured phase(s).
  std::vector<const Phase*> phases = {&ramp, &phase};
  if (baseline) phases.push_back(&*baseline);
  for (const Phase* p : phases) {
    const LoadResult& r = p->total;
    checks.Expect("phase.attempted_identity",
                  r.attempted == r.ok + r.busy + r.errors + r.unanswered);
    checks.Expect("phase.errors_zero", r.errors == 0);
    checks.Expect("phase.unanswered_zero", r.unanswered == 0);
    checks.Expect("phase.first_touches_fresh",
                  r.repeated_first_touches == 0);
    checks.Expect("phase.proposals_valid", r.bad_configs == 0);
    checks.Expect("phase.replies_well_formed", r.bad_replies == 0);
    checks.Expect("phase.rejected_verdicts_zero", r.rejected_verdicts == 0);
    checks.Expect("phase.checkpoints_ok", p->checkpoints.failures == 0);
    if (!r.error.empty()) std::fprintf(stderr, "client: %s\n", r.error.c_str());
  }
  const Registry& start = setup.served_trial_start;
  checks.Expect("registry.rejected_zero", end.rejected == start.rejected);
  checks.Expect("registry.shed_zero", end.shed == start.shed);
  // restart_recover's budget holds everything it touches: it must neither
  // evict nor truncate retained observations. Without a tier, nothing
  // faults in either.
  checks.Expect("tier.no_evictions", end.evictions == start.evictions &&
                                         tier_after.evictions == 0);
  checks.Expect("observation.no_truncation", observations_truncated == 0);
  if (!workload->restart) {
    checks.Expect("tier.no_faultins",
                  end.faultins == start.faultins && tier_after.faultins == 0);
  }

  uint64_t attempted = phase.total.attempted;
  uint64_t failed = phase.total.attempted - phase.total.ok;
  std::vector<Metric> metrics;
  LatencySummary propose = SummarizeSlices(phase.propose_ns);
  LatencySummary observe = SummarizeSlices(phase.observe_ns);
  PrintLatency("propose", propose);
  PrintLatency("observe", observe);
  if (!args.trace) {
    checks.Expect("latency.propose_p99_supported", propose.p99_supported);
    checks.Expect("latency.observe_p99_supported", observe.p99_supported);
    metrics = {
        {"setup_s", Median(setup.seconds), "s"},
        {"ok_qps", phase.ok_qps, "1/s"},
        {"propose_p50_us", propose.p50_us, "us"},
        {"propose_p99_us", propose.p99_us, "us"},
        {"observe_p50_us", observe.p50_us, "us"},
        {"observe_p99_us", observe.p99_us, "us"},
        {"setup_rss_mib", setup.rss_mib, "MiB"},
        {"tuned_speedup", tuned_speedup, "ratio"},
    };
  } else {
    metrics = PerLayerMetrics(phase, *baseline, before, after, propose,
                              observe, setup, tier_after, observation_mib,
                              bytes_per_record);
    const LoadResult& r = phase.total;
    std::printf(
        "trace spans=%zu untraced_ok_qps=%.1f traced_ok_qps=%.1f "
        "send_us=%.2f recv_us=%.2f encode_propose_us=%.2f "
        "decode_propose_us=%.2f observation_end_mib=%.2f\n",
        traced_logs[0]->spans().size() + traced_logs[1]->spans().size() +
            main_log.spans().size(),
        baseline ? baseline->ok_qps : 0.0, phase.ok_qps, r.send.MeanUs(),
        r.recv.MeanUs(), r.encode_propose.MeanUs(), r.decode_propose.MeanUs(),
        observation_end_mib);
    const std::string spans_path = args.workdir + "/spans.csv";
    const bool written = WriteSpansCsv(
        spans_path, {&main_log, traced_logs[0].get(), traced_logs[1].get()},
        phase_start);
    checks.Expect("trace.spans_written", written);
    std::printf("trace spans_csv=%s\n", spans_path.c_str());
  }

  std::printf(
      "phase seconds=%.3f attempted=%llu ok=%llu busy=%llu errors=%llu "
      "unanswered=%llu proposes=%llu observes=%llu first_touches=%llu "
      "re_touches=%llu checkpoints=%llu faultins=%llu evictions=%llu "
      "resident_states=%zu cold_states=%zu cpu_steal_share=%.4f\n",
      phase.seconds, static_cast<unsigned long long>(phase.total.attempted),
      static_cast<unsigned long long>(phase.total.ok),
      static_cast<unsigned long long>(phase.total.busy),
      static_cast<unsigned long long>(phase.total.errors),
      static_cast<unsigned long long>(phase.total.unanswered),
      static_cast<unsigned long long>(phase.total.propose_ok),
      static_cast<unsigned long long>(phase.total.observe_ok),
      static_cast<unsigned long long>(phase.total.first_touches),
      static_cast<unsigned long long>(phase.total.re_touches),
      static_cast<unsigned long long>(phase.checkpoints.calls),
      static_cast<unsigned long long>(tier_after.faultins - tier_before.faultins),
      static_cast<unsigned long long>(tier_after.evictions -
                                      tier_before.evictions),
      tier_after.resident_signatures, tier_after.cold_signatures,
      cpu_after.total > cpu_before.total
          ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                static_cast<double>(cpu_after.total - cpu_before.total)
          : 0.0);
  for (const auto& [name, ok] : checks.items) {
    if (!ok) std::printf("check FAILED %s\n", name.c_str());
  }
  std::printf("checks passed=%d total=%zu\n", checks.all_ok() ? 1 : 0,
              checks.items.size());
  for (const Metric& m : metrics) {
    std::printf("metric %s=%.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string json = ResultJson(checks.all_ok(), attempted, failed, metrics);
  std::ofstream(args.workdir + "/result.json") << json << "\n";
  stack.reset();
  RemoveTree(trial_dir);
  settle_s += SettleFilesystem(args.workdir);
  std::printf("settle filesystem_sync_s=%.3f\n", settle_s);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--source-id ID]\n");
    return 2;
  }
  return servebench::Run(args);
}
