#ifndef ROCKHOPPER_CORE_SIGNATURE_SHARD_H_
#define ROCKHOPPER_CORE_SIGNATURE_SHARD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/centroid_learning.h"
#include "core/guardrail.h"

namespace rockhopper::core {

/// Per-signature tuning state: the isolated model of one recurring query
/// (the paper's per-query, per-user training boundary). Owned by the shard
/// that owns the signature; all access goes through the shard lock.
struct QueryState {
  std::unique_ptr<CentroidLearner> tuner;
  Guardrail guardrail;
  std::vector<double> embedding;
  bool disabled = false;
  /// Failure-policy state: current streak, fallback runs left on the
  /// defaults, and the (exponentially growing) backoff width.
  int consecutive_failures = 0;
  int fallback_remaining = 0;
  int backoff = 1;
};

/// Why a signature is cold (known to exist but not resident).
enum class ColdSource {
  /// Evicted under memory pressure; a serialized artifact exists in the
  /// model store and fault-in decodes it (replaying history as fallback).
  kEvicted,
  /// Lazy-recovery tombstone: the journal named the signature but startup
  /// deferred materialization; fault-in replays its observation history.
  kReplay,
};

/// Cold-tier directory entry — deliberately tiny (the 1M-signature budget
/// is spent on *resident* state, not on the directory).
struct ColdEntry {
  ColdSource source = ColdSource::kEvicted;
  /// Guardrail-disabled flag cached at eviction time so CountDisabled stays
  /// exact without faulting. Unknown (false) for kReplay tombstones until
  /// first touch.
  bool disabled = false;
};

/// Wiring of the two-tier resident/cold state layer (EnableTiering). The
/// default config has no saver, loader or sizer: nothing is measured,
/// spilled or faulted in.
struct TieringConfig {
  /// Serializes and persists one state being evicted. A non-OK return keeps
  /// the state resident (eviction skips it this round).
  std::function<Status(uint64_t, const QueryState&)> saver;
  /// Materializes one cold state on fault-in — decode the stored artifact
  /// or replay the observation history, per the entry's source. Must be
  /// deterministic: twin services faulting the same signature from the same
  /// journal must converge on bit-identical state.
  std::function<Result<QueryState>(uint64_t, const ColdEntry&)> loader;
  /// Resident-footprint accounting (ApproxQueryStateBytes); the unit of
  /// `budget_bytes`.
  std::function<size_t(const QueryState&)> sizer;
  /// Resident-bytes budget; 0 disables eviction (directory-only tiering,
  /// used by lazy recovery without a memory cap). Adjustable at runtime via
  /// SetBudgetBytes (the admin verb).
  size_t budget_bytes = 0;
  /// Eviction drains to this fraction of the budget (hysteresis, so one
  /// fault-in does not immediately re-trigger the clock hand).
  double low_watermark = 0.9;
  /// SweepIdle evicts entries untouched for at least this many idle ticks
  /// (AdvanceIdleTick); 0 disables time-based eviction.
  uint64_t idle_ttl_ticks = 0;
};

/// Resident/cold population counters (stats endpoints, benchmark gates).
struct TierStats {
  size_t resident_signatures = 0;
  size_t resident_bytes = 0;
  size_t cold_signatures = 0;
  uint64_t evictions = 0;
  uint64_t faultins = 0;
  /// Evictions performed by the idle sweeper (subset of `evictions`).
  uint64_t sweep_evictions = 0;
  /// Evictions that skipped the save because the state was clean — its
  /// persisted artifact was already current (subset of `evictions`).
  uint64_t clean_evictions = 0;
};

/// Lock-striped map of per-signature QueryState — the RocksDB sharded-cache
/// pattern applied to the tuning service's hot state: a signature lives in
/// shard `signature % kNumShards`, each shard a std::map under its own
/// mutex, so concurrent tenants touching different signatures contend only
/// when they hash to the same shard.
///
/// The map is a two-tier cache: each shard keeps a resident map (full
/// QueryState + clock ref bit) and a cold directory (tiny ColdEntry), wired
/// by EnableTiering. Find faults cold signatures back in transparently —
/// callers cannot tell an evicted signature from a resident one — and guard
/// release re-accounts the state's footprint and turns the clock hand when
/// the resident total exceeds the budget (second-chance eviction, one shard
/// lock at a time, never nested).
///
/// Accessors hand back a LockedState guard that owns the shard lock; the
/// pointed-to QueryState is exclusively held for the guard's lifetime.
/// Cross-shard operations (ForEach, Size, CountDisabled) take one shard
/// lock at a time and never nest locks, so they can run concurrently with
/// per-signature work without deadlock. ForEach visits resident states
/// only — it is a scan, and faulting the whole cold tier in would defeat
/// the budget; callers needing a specific signature use Find.
class SignatureShardMap {
 public:
  static constexpr size_t kNumShards = 16;

  static size_t ShardIndex(uint64_t signature) {
    return signature % kNumShards;
  }

  /// A shard-lock-owning view of one signature's state. `state` stays valid
  /// and exclusively held while `lock` is held. The guard's release
  /// re-computes the state's footprint (mutations through the guard are the
  /// only way resident bytes change) and may trigger eviction — after
  /// dropping the shard lock, so eviction never nests.
  struct LockedState {
    std::unique_lock<std::mutex> lock;
    QueryState* state = nullptr;
    explicit operator bool() const { return state != nullptr; }

    LockedState() = default;
    LockedState(std::unique_lock<std::mutex> l, QueryState* s)
        : lock(std::move(l)), state(s) {}
    LockedState(LockedState&& other) noexcept { *this = std::move(other); }
    LockedState& operator=(LockedState&& other) noexcept {
      if (this != &other) {
        Release();
        lock = std::move(other.lock);
        state = other.state;
        owner_ = other.owner_;
        signature_ = other.signature_;
        other.state = nullptr;
        other.owner_ = nullptr;
      }
      return *this;
    }
    ~LockedState() { Release(); }
    LockedState(const LockedState&) = delete;
    LockedState& operator=(const LockedState&) = delete;

   private:
    friend class SignatureShardMap;
    void Release();
    SignatureShardMap* owner_ = nullptr;
    uint64_t signature_ = 0;
  };
  struct LockedConstState {
    std::unique_lock<std::mutex> lock;
    const QueryState* state = nullptr;
    explicit operator bool() const { return state != nullptr; }

    LockedConstState() = default;
    LockedConstState(std::unique_lock<std::mutex> l, const QueryState* s)
        : lock(std::move(l)), state(s) {}
    LockedConstState(LockedConstState&& other) noexcept {
      *this = std::move(other);
    }
    LockedConstState& operator=(LockedConstState&& other) noexcept {
      if (this != &other) {
        Release();
        lock = std::move(other.lock);
        state = other.state;
        owner_ = other.owner_;
        other.state = nullptr;
        other.owner_ = nullptr;
      }
      return *this;
    }
    ~LockedConstState() { Release(); }
    LockedConstState(const LockedConstState&) = delete;
    LockedConstState& operator=(const LockedConstState&) = delete;

   private:
    friend class SignatureShardMap;
    void Release();
    SignatureShardMap* owner_ = nullptr;
  };

  /// Replaces the tier wiring. Must be called before concurrent use
  /// (startup wiring, not a runtime toggle). States already resident are
  /// adopted into the accounting on their next guard release.
  void EnableTiering(TieringConfig config);

  /// Registers `signature` as cold without materializing it — the lazy
  /// recovery path's directory fill. No-op if the signature is already
  /// resident or cold.
  void InsertCold(uint64_t signature, ColdEntry entry);

  /// Locks the owning shard and returns the signature's state, faulting it
  /// in from the cold tier if needed, or a guard with `state == nullptr`
  /// (shard still locked) when the signature is unknown — or when a cold
  /// state's materialization failed (the tombstone is kept for retry).
  LockedState Find(uint64_t signature);
  /// Const lookups fault in too: reads (digests, explain endpoints) must
  /// see evicted signatures or twin-recovery digests would diverge on
  /// eviction patterns. Logically const — materialization is invisible to
  /// callers.
  LockedConstState Find(uint64_t signature) const;

  /// Inserts `state` for `signature` unless one exists; either way returns
  /// the surviving state with its shard locked. A racing insert keeps the
  /// first arrival — the loser's state is discarded, matching how a sharded
  /// cache resolves concurrent fills of one key. A cold entry counts as an
  /// existing state: it is faulted in and `state` is discarded.
  LockedState Emplace(uint64_t signature, QueryState state);

  /// Removes the signature's state (resident or cold); returns whether one
  /// existed.
  bool Erase(uint64_t signature);

  /// Visits every resident (signature, state) pair shard by shard, holding
  /// only the visited shard's lock. Mutations from other threads may
  /// interleave between shards; within one shard the view is consistent.
  /// Cold signatures are not visited (see class comment).
  void ForEach(
      const std::function<void(uint64_t, const QueryState&)>& fn) const;

  /// Signatures ever seen (resident + cold) / currently disabled
  /// (deployment stats, §6.3). CountDisabled is exact across tiers for
  /// evicted states (the flag is cached in the cold directory) and counts a
  /// kReplay tombstone as enabled until first touch.
  size_t Size() const;
  size_t CountDisabled() const;

  /// Tier population and traffic counters (stats, benchmark gates).
  TierStats Stats() const;

  /// Runs the clock hand until resident bytes drop to the low watermark
  /// (no-op when under budget or without a saver). Usually triggered by
  /// guard release; exposed for deterministic tests.
  void MaybeEvict();

  /// Replaces the resident-bytes budget at runtime (the admin verb) and
  /// immediately drains if the new budget is exceeded.
  void SetBudgetBytes(size_t budget_bytes);
  /// Current resident-bytes budget (0 when unlimited).
  size_t budget_bytes() const {
    return budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Advances the logical idle clock by one tick and returns the new value.
  /// The caller (the service's background sweeper, or a test) defines the
  /// tick cadence; the map only compares tick distances, which keeps idle
  /// eviction deterministic under simulation.
  uint64_t AdvanceIdleTick() {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// One low-priority sweep pass: evicts every resident state idle for at
  /// least `idle_ttl_ticks` ticks, even when the budget has headroom. Clean
  /// states skip the save (their artifact is current); dirty states go
  /// through the saver. Returns the number of states evicted.
  size_t SweepIdle();

 private:
  struct Entry {
    QueryState state;
    size_t bytes = 0;
    /// Second-chance bit: set on every touch, cleared by a clock pass;
    /// only clear entries are evicted.
    bool ref = true;
    /// Set when the resident state may have diverged from its persisted
    /// artifact (fresh inserts, replay fault-ins, any mutable-guard
    /// release). Clean states evict without re-saving, so steady-state
    /// eviction I/O tracks churn rather than population.
    bool dirty = true;
    /// Idle-clock reading at the last touch (Find/Emplace/fault-in).
    uint64_t last_touch = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<uint64_t, Entry> states;
    std::map<uint64_t, ColdEntry> cold;
    /// The clock hand's resume position within this shard.
    uint64_t clock_next = 0;
  };

  /// Materializes a cold signature into `shard` (whose lock is held).
  /// Returns the resident entry or nullptr when the loader failed.
  Entry* FaultIn(Shard& shard, uint64_t signature);
  /// Re-computes one resident state's footprint after a guard released it
  /// and marks it dirty (a mutable guard is the only mutation path).
  void Reaccount(uint64_t signature);
  /// Moves `it`'s entry to the cold tier (shard lock held). Returns true
  /// and advances `it` on success; returns false with `it` advanced past
  /// the survivor when a dirty state's save failed.
  bool EvictEntryLocked(Shard& shard, std::map<uint64_t, Entry>::iterator& it,
                        bool via_sweep);
  void SetGauges() const;

  std::array<Shard, kNumShards> shards_;
  TieringConfig tiering_;
  std::atomic<size_t> budget_bytes_{0};
  std::atomic<uint64_t> tick_{0};
  std::atomic<size_t> resident_bytes_{0};
  std::atomic<size_t> resident_count_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> faultins_{0};
  std::atomic<uint64_t> sweep_evictions_{0};
  std::atomic<uint64_t> clean_evictions_{0};
  /// Single-flight eviction: concurrent releases over budget elect one
  /// evictor, the rest skip (the winner drains to the watermark).
  std::mutex evict_mu_;
  /// The clock hand's current shard.
  std::atomic<size_t> clock_shard_{0};
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_SIGNATURE_SHARD_H_
