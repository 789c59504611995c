#include "inputs.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/journal.h"
#include "sparksim/workloads.h"

namespace servebench {

namespace fs = std::filesystem;
using rockhopper::Result;
using rockhopper::Status;
namespace core = rockhopper::core;
namespace common = rockhopper::common;

namespace {

constexpr uint64_t kPopulationTag = 0x706f70756c617469;  // "populati"
constexpr uint64_t kChainTag = 0x636861696e726563;       // "chainrec"
constexpr const char* kDoneMarker = "chain.done";

// Passes [0, kFullPasses) land in the full image, the next kDeltaPasses in
// one delta, the next kSegmentPasses in a sealed segment, the rest in the
// live journal. The delta stays small beside the image, so the deltas the
// run's checkpoints stack on it stay under the collapse-to-full-image
// thresholds (max_delta_chain, max_delta_bytes_fraction) for the whole run.
constexpr int kFullPasses = 13;
constexpr int kDeltaPasses = 1;
constexpr int kSegmentPasses = 1;

std::string DoneText(const ChainInfo& info) {
  std::ostringstream out;
  out << "signatures=" << info.signatures << " records=" << info.records
      << " tail=" << info.tail_records << " segments=" << info.segments
      << "\n";
  return out.str();
}

/// Writes the chain `info` describes (its directory exists and is empty).
Status BuildChain(const ChainInfo& info, const Population& population,
                  uint64_t seed) {
  auto opened = core::ObservationJournal::Open(info.journal_path);
  if (!opened.ok()) return opened.status();
  core::ObservationJournal journal = std::move(*opened);
  ROCKHOPPER_RETURN_IF_ERROR(journal.StartGroupCommit());

  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::ConfigVector defaults = space.Defaults();
  sparksim::SparkSimulator sim(ClusterOptions(seed ^ kChainTag));
  common::Rng rng(common::SplitMix64(seed ^ kChainTag));
  for (int pass = 0; pass < kChainRecordsPerSignature; ++pass) {
    for (size_t i = 0; i < population.plans.size(); ++i) {
      const sparksim::QueryPlan& plan = population.plans[i];
      core::Observation obs;
      obs.config =
          pass == 0 ? defaults : space.SampleNeighbor(defaults, 0.5, &rng);
      const sparksim::ExecutionResult run =
          sim.ExecuteQuery(plan, obs.config, 1.0);
      obs.data_size = run.input_bytes;
      obs.runtime = run.runtime_seconds;
      obs.iteration = pass;
      obs.failed = run.failed;
      ROCKHOPPER_RETURN_IF_ERROR(
          journal.Append(population.signatures[i], obs));
    }
    if (pass + 1 == kFullPasses) {
      auto full = core::CheckpointLive(&journal);
      if (!full.ok()) return full.status();
    } else if (pass + 1 == kFullPasses + kDeltaPasses) {
      auto delta = core::CheckpointLive(&journal, core::DeltaCheckpointPolicy());
      if (!delta.ok()) return delta.status();
      if (delta->delta_index != 1) {
        return Status::Internal("chain build: expected one delta, got index " +
                                std::to_string(delta->delta_index));
      }
    } else if (pass + 1 == kFullPasses + kDeltaPasses + kSegmentPasses) {
      auto rotated = journal.Rotate();
      if (!rotated.ok()) return rotated.status();
    }
  }
  ROCKHOPPER_RETURN_IF_ERROR(journal.Close());

  std::ofstream done(info.dir + "/" + kDoneMarker, std::ios::trunc);
  done << DoneText(info);
  if (!done) return Status::IOError("cannot write chain marker");
  return Status::OK();
}

}  // namespace

sparksim::SparkSimulator::Options ClusterOptions(uint64_t seed) {
  sparksim::SparkSimulator::Options options;
  options.noise = sparksim::NoiseParams::Low();
  options.seed = seed;
  return options;
}

Population MakePopulation(size_t size, uint64_t seed) {
  Population population;
  population.plans.reserve(size);
  population.signatures.reserve(size);
  common::Rng rng(common::SplitMix64(seed ^ kPopulationTag));
  while (population.plans.size() < size) {
    sparksim::QueryPlan plan = sparksim::CustomerPlan(&rng);
    const uint64_t signature = plan.Signature();
    if (population.by_signature.count(signature) != 0) continue;
    population.plans.push_back(std::move(plan));
    population.signatures.push_back(signature);
    population.by_signature[signature] = &population.plans.back();
  }
  return population;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

double SettleFilesystem(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Result<ChainInfo> EnsureChain(const std::string& cache_root,
                              const Population& population, uint64_t seed) {
  ChainInfo info;
  info.signatures = population.plans.size();
  info.records = info.signatures * kChainRecordsPerSignature;
  info.tail_records =
      info.signatures * (kChainRecordsPerSignature - kFullPasses -
                         kDeltaPasses);
  info.segments = 1;
  info.dir = cache_root + "/chain-s" + std::to_string(seed) + "-n" +
             std::to_string(info.signatures);
  info.journal_path = info.dir + "/journal.log";

  {
    std::ifstream done(info.dir + "/" + kDoneMarker);
    std::stringstream text;
    text << done.rdbuf();
    if (done && text.str() == DoneText(info)) {
      info.reused = true;
      return info;
    }
  }
  std::error_code ec;
  fs::create_directories(cache_root, ec);
  for (const auto& entry : fs::directory_iterator(cache_root, ec)) {
    if (entry.path().filename().string().rfind("chain-", 0) == 0) {
      RemoveTree(entry.path().string());
    }
  }
  fs::create_directories(info.dir, ec);
  if (ec) return Status::IOError("cannot create " + info.dir);

  // A child process builds the chain, so none of the memory the build
  // touches stays in this process: setup_rss_mib reads the same whether
  // the chain was built or reused. No other thread runs yet.
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) return Status::IOError("cannot fork the chain build");
  if (child == 0) {
    const Status built = BuildChain(info, population, seed);
    if (!built.ok()) {
      std::fprintf(stderr, "chain build: %s\n", built.ToString().c_str());
    }
    std::fflush(nullptr);
    ::_exit(built.ok() ? 0 : 1);
  }
  int wait_status = 0;
  if (::waitpid(child, &wait_status, 0) != child ||
      !WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    return Status::Internal("chain build failed");
  }
  return info;
}

Result<std::string> CopyChain(const ChainInfo& chain, const std::string& dest) {
  std::error_code ec;
  fs::create_directories(dest, ec);
  if (ec) return Status::IOError("cannot create " + dest);
  for (const auto& entry : fs::directory_iterator(chain.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kDoneMarker) continue;
    const fs::path target = fs::path(dest) / name;
    if (name != "journal.log") {
      fs::create_hard_link(entry.path(), target, ec);
      if (!ec) continue;
    }
    fs::copy_file(entry.path(), target, fs::copy_options::overwrite_existing,
                  ec);
    if (ec) return Status::IOError("cannot copy " + name + ": " + ec.message());
  }
  return dest + "/journal.log";
}

}  // namespace servebench
