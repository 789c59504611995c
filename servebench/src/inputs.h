#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sparksim/config_space.h"
#include "sparksim/plan.h"
#include "sparksim/simulator.h"

namespace servebench {

namespace sparksim = rockhopper::sparksim;

/// Noise of the stand-in cluster: paper Eq. 8 at the low setting
/// (FL = SL = 0.1), so tuners keep tuning instead of tripping guardrails.
sparksim::SparkSimulator::Options ClusterOptions(uint64_t seed);

/// The recurring-query population: distinct sparksim::CustomerPlan
/// signatures drawn from the workload seed. Plan addresses are stable for
/// the population's lifetime (the plan registry and resolver point at them).
struct Population {
  std::vector<sparksim::QueryPlan> plans;
  std::vector<uint64_t> signatures;  ///< plans[i].Signature()
  std::unordered_map<uint64_t, const sparksim::QueryPlan*> by_signature;
};
Population MakePopulation(size_t size, uint64_t seed);

/// The on-disk journal chain restart_recover recovers from: per signature
/// `records_per_signature` sparksim runs of configs sampled near the
/// defaults, written pass by pass through ObservationJournal and split into
/// a full checkpoint image, one delta, one sealed segment and a live tail.
struct ChainInfo {
  std::string dir;
  std::string journal_path;
  size_t signatures = 0;
  size_t records = 0;
  /// Records past the checkpoint chain (sealed segment + live tail).
  size_t tail_records = 0;
  size_t segments = 0;
  bool reused = false;  ///< found in the cache instead of being built
};

inline constexpr int kChainRecordsPerSignature = 16;

/// Builds the chain for (`population`, `seed`) under `cache_root` in a child
/// process, or reuses the one already there when seed and size match. Any
/// other cached chain is removed first, so the cache holds one chain.
rockhopper::Result<ChainInfo> EnsureChain(const std::string& cache_root,
                                          const Population& population,
                                          uint64_t seed);

/// Places the chain's files in the empty directory `dest` and returns the
/// journal path there. The live journal, which the service appends to, is
/// copied; the checkpoint image, delta and sealed segment, which recovery
/// and compaction only read, rename or unlink, are hard-linked, so a trial
/// writes no copy of them.
rockhopper::Result<std::string> CopyChain(const ChainInfo& chain,
                                          const std::string& dest);

/// Removes `path` recursively (no error when absent).
void RemoveTree(const std::string& path);

/// Commits everything pending on the filesystem holding `path` (syncfs), so
/// writeback and the discards of deleted files finish before a clock
/// starts instead of stalling the next measurement. Returns the seconds it
/// took.
double SettleFilesystem(const std::string& path);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
