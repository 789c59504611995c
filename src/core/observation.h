#ifndef ROCKHOPPER_CORE_OBSERVATION_H_
#define ROCKHOPPER_CORE_OBSERVATION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "sparksim/config_space.h"

namespace rockhopper::core {

/// One tuning observation: the tuple (c_i, p_i, r_i) of Algorithm 1 —
/// the executed configuration, the input data size it ran against, and the
/// observed (noisy) runtime.
struct Observation {
  sparksim::ConfigVector config;
  double data_size = 1.0;
  double runtime = 0.0;
  int iteration = 0;
  /// The execution died; `runtime` is then the penalized imputation the
  /// failure policy fed to the tuner, not a measured runtime.
  bool failed = false;
};

/// The latest-N window Omega(t, N) of Algorithm 1.
using ObservationWindow = std::vector<Observation>;

/// Approximate resident bytes of one observation (struct + config payload).
/// Used by the shared-process budget accounting; intentionally ignores
/// vector slack so the figure is deterministic across allocators.
inline size_t ApproxObservationBytes(const Observation& obs) {
  return sizeof(Observation) + obs.config.size() * sizeof(double);
}

/// Append-only per-query-signature observation log, the in-process stand-in
/// for the paper's event-file storage (§5). Each query signature gets an
/// isolated history; the store never mixes signatures (the paper's privacy
/// boundary between users maps to the same isolation property).
///
/// Thread-safe via lock striping: a signature's window lives in the shard
/// `signature % kNumShards`, guarded by that shard's mutex, so concurrent
/// ingestion for different signatures does not contend on one lock. `LastN`,
/// `Count`, and `Signatures` copy under the shard lock and are safe at any
/// time; `History` returns a reference into the store and is only stable
/// while no thread is appending to the *same* signature (quiescent reads:
/// recovery, reports, tests).
class ObservationStore {
 public:
  static constexpr size_t kNumShards = 16;

  ObservationStore() = default;
  /// Movable (fresh mutexes on the destination) so recovery results can be
  /// returned by value; moving a store that other threads are still using is
  /// undefined, like any container.
  ObservationStore(ObservationStore&& other) noexcept;
  ObservationStore& operator=(ObservationStore&& other) noexcept;
  ObservationStore(const ObservationStore&) = delete;
  ObservationStore& operator=(const ObservationStore&) = delete;

  /// Appends an observation for `signature`; the iteration field is
  /// auto-assigned sequentially when negative. Iteration numbering counts
  /// every observation ever appended, so it stays monotonic even after
  /// retention truncation drops old rows.
  void Append(uint64_t signature, Observation obs);

  /// Full (retained) history for `signature` (empty when unseen). See the
  /// class comment for the reference-stability caveat under concurrency.
  const std::vector<Observation>& History(uint64_t signature) const;

  /// The most recent `n` observations for `signature` (copied under lock).
  ObservationWindow LastN(uint64_t signature, size_t n) const;

  /// Number of observations currently retained for `signature`.
  size_t Count(uint64_t signature) const;

  /// Number of observations ever appended for `signature`, including rows
  /// since dropped by retention.
  size_t TotalAppended(uint64_t signature) const;

  /// All signatures with at least one observation, in ascending order.
  std::vector<uint64_t> Signatures() const;

  /// Bounds every per-signature history to its most recent `window` rows
  /// (0 restores the unbounded default). Applies retroactively to existing
  /// histories and to every subsequent Append. The window must cover what
  /// the tuner / guardrail actually consult; older rows are dropped, not
  /// spilled — they are already durable in the journal.
  void SetRetention(size_t window);

  /// Current retention window (0 = unbounded).
  size_t retention() const {
    return retention_window_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes across all retained observations.
  size_t ApproxBytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  /// Total observations dropped by retention truncation since construction.
  size_t TruncatedTotal() const {
    return truncated_.load(std::memory_order_relaxed);
  }

 private:
  struct Log {
    std::vector<Observation> history;
    /// Appended-ever count; preserved across truncation so auto-assigned
    /// iteration numbers never repeat.
    size_t total = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<uint64_t, Log> log;
  };

  /// Drops rows beyond `window` from the front of `entry` under the shard
  /// lock, maintaining the byte / truncation counters.
  void TruncateLocked(Log& entry, size_t window);

  Shard& ShardFor(uint64_t signature) {
    return shards_[signature % kNumShards];
  }
  const Shard& ShardFor(uint64_t signature) const {
    return shards_[signature % kNumShards];
  }

  std::array<Shard, kNumShards> shards_;
  std::atomic<size_t> retention_window_{0};
  std::atomic<size_t> approx_bytes_{0};
  std::atomic<size_t> truncated_{0};
};

/// The lowest runtime in `window`; error when empty.
Result<double> MinRuntime(const ObservationWindow& window);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_OBSERVATION_H_
