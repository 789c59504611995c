#include "core/signature_shard.h"

#include <utility>

#include "common/logging.h"
#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

void SignatureShardMap::LockedState::Release() {
  if (owner_ != nullptr && state != nullptr) {
    // Still under the shard lock: mutations through this guard are the only
    // way a resident state's footprint changes, so re-account it here.
    owner_->Reaccount(signature_);
  }
  SignatureShardMap* owner = owner_;
  owner_ = nullptr;
  state = nullptr;
  if (lock.owns_lock()) lock.unlock();
  // Outside every shard lock: the eviction clock takes shard locks itself.
  if (owner != nullptr) owner->MaybeEvict();
}

void SignatureShardMap::LockedConstState::Release() {
  SignatureShardMap* owner = owner_;
  owner_ = nullptr;
  state = nullptr;
  if (lock.owns_lock()) lock.unlock();
  // A const guard mutates nothing, but the fault-in that produced it may
  // have pushed the resident total over budget.
  if (owner != nullptr) owner->MaybeEvict();
}

void SignatureShardMap::EnableTiering(TieringConfig config) {
  tiering_ = std::move(config);
  if (tiering_.low_watermark <= 0.0 || tiering_.low_watermark > 1.0) {
    tiering_.low_watermark = 0.9;
  }
  budget_bytes_.store(tiering_.budget_bytes, std::memory_order_relaxed);
}

void SignatureShardMap::SetBudgetBytes(size_t budget_bytes) {
  budget_bytes_.store(budget_bytes, std::memory_order_relaxed);
  MaybeEvict();
}

void SignatureShardMap::InsertCold(uint64_t signature, ColdEntry entry) {
  Shard& shard = shards_[ShardIndex(signature)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.states.find(signature) != shard.states.end()) return;
  shard.cold.emplace(signature, entry);
}

SignatureShardMap::Entry* SignatureShardMap::FaultIn(Shard& shard,
                                                     uint64_t signature) {
  auto cold_it = shard.cold.find(signature);
  if (cold_it == shard.cold.end() || !tiering_.loader) return nullptr;
  ScopedSpan span(ServiceMetrics::Get().state_faultin_seconds);
  Result<QueryState> loaded = tiering_.loader(signature, cold_it->second);
  if (!loaded.ok()) {
    // Keep the tombstone: the next Find retries, and callers see the
    // signature as absent rather than silently fresh.
    ROCKHOPPER_LOG(kWarning) << "fault-in failed for signature " << signature
                             << ": " << loaded.status().ToString();
    return nullptr;
  }
  Entry entry;
  entry.state = std::move(*loaded);
  entry.bytes = tiering_.sizer ? tiering_.sizer(entry.state) : 0;
  entry.ref = true;
  // An evicted signature was materialized from its persisted artifact, so
  // the artifact is current until the next mutable-guard release; a replay
  // tombstone has no artifact yet.
  entry.dirty = cold_it->second.source != ColdSource::kEvicted;
  entry.last_touch = tick_.load(std::memory_order_relaxed);
  auto [it, inserted] = shard.states.emplace(signature, std::move(entry));
  shard.cold.erase(cold_it);
  resident_bytes_.fetch_add(it->second.bytes, std::memory_order_relaxed);
  resident_count_.fetch_add(1, std::memory_order_relaxed);
  faultins_.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::Get().state_faultins->Increment();
  SetGauges();
  return &it->second;
}

SignatureShardMap::LockedState SignatureShardMap::Find(uint64_t signature) {
  Shard& shard = shards_[ShardIndex(signature)];
  LockedState locked{std::unique_lock<std::mutex>(shard.mu), nullptr};
  auto it = shard.states.find(signature);
  Entry* entry = it != shard.states.end() ? &it->second : nullptr;
  if (entry == nullptr) entry = FaultIn(shard, signature);
  if (entry != nullptr) {
    entry->ref = true;
    entry->last_touch = tick_.load(std::memory_order_relaxed);
    locked.state = &entry->state;
    locked.owner_ = this;
    locked.signature_ = signature;
  }
  return locked;
}

SignatureShardMap::LockedConstState SignatureShardMap::Find(
    uint64_t signature) const {
  // Logically const: fault-in changes which tier holds the state, never the
  // state a caller observes.
  LockedState locked = const_cast<SignatureShardMap*>(this)->Find(signature);
  LockedConstState const_locked{std::move(locked.lock), locked.state};
  const_locked.owner_ = locked.owner_;
  locked.owner_ = nullptr;  // accounting is the const guard's job now
  locked.state = nullptr;
  return const_locked;
}

SignatureShardMap::LockedState SignatureShardMap::Emplace(uint64_t signature,
                                                          QueryState state) {
  Shard& shard = shards_[ShardIndex(signature)];
  LockedState locked{std::unique_lock<std::mutex>(shard.mu), nullptr};
  Entry* entry = nullptr;
  auto it = shard.states.find(signature);
  if (it != shard.states.end()) {
    entry = &it->second;
  } else if (shard.cold.find(signature) != shard.cold.end()) {
    // A cold signature is an existing state; first arrival wins, so the
    // caller's state is discarded in favor of the materialized one. A
    // failed fault-in falls through to the caller's state (the tombstone's
    // learned state is unreachable; a fresh start beats an absent one).
    entry = FaultIn(shard, signature);
  }
  if (entry == nullptr) {
    Entry fresh;
    fresh.state = std::move(state);
    fresh.bytes = tiering_.sizer ? tiering_.sizer(fresh.state) : 0;
    auto [new_it, inserted] = shard.states.emplace(signature, std::move(fresh));
    entry = &new_it->second;
    if (inserted) {
      shard.cold.erase(signature);
      resident_bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
      resident_count_.fetch_add(1, std::memory_order_relaxed);
      SetGauges();
    }
  }
  entry->ref = true;
  entry->last_touch = tick_.load(std::memory_order_relaxed);
  locked.state = &entry->state;
  locked.owner_ = this;
  locked.signature_ = signature;
  return locked;
}

bool SignatureShardMap::Erase(uint64_t signature) {
  Shard& shard = shards_[ShardIndex(signature)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.states.find(signature);
  if (it != shard.states.end()) {
    resident_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    resident_count_.fetch_sub(1, std::memory_order_relaxed);
    shard.states.erase(it);
    SetGauges();
    return true;
  }
  return shard.cold.erase(signature) > 0;
}

void SignatureShardMap::ForEach(
    const std::function<void(uint64_t, const QueryState&)>& fn) const {
  // Contention-window reordering: cross-shard scans hold one shard lock at a
  // time, so concurrent writers interleave between shards — the visit order
  // is not a consistency guarantee. The injected reversal simulates the
  // adversarial interleaving (a writer racing ahead of the scan) and flushes
  // out callers that silently depend on ascending shard order.
  if (ROCKHOPPER_BUGGIFY("shard.foreach.reorder")) {
    for (size_t i = kNumShards; i > 0; --i) {
      const Shard& shard = shards_[i - 1];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [signature, entry] : shard.states) {
        fn(signature, entry.state);
      }
    }
    return;
  }
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [signature, entry] : shard.states) {
      fn(signature, entry.state);
    }
  }
}

size_t SignatureShardMap::Size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.states.size() + shard.cold.size();
  }
  return total;
}

size_t SignatureShardMap::CountDisabled() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [_, entry] : shard.states) {
      if (entry.state.disabled) ++count;
    }
    for (const auto& [_, cold] : shard.cold) {
      if (cold.disabled) ++count;
    }
  }
  return count;
}

TierStats SignatureShardMap::Stats() const {
  TierStats stats;
  stats.resident_signatures = resident_count_.load(std::memory_order_relaxed);
  stats.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.faultins = faultins_.load(std::memory_order_relaxed);
  stats.sweep_evictions = sweep_evictions_.load(std::memory_order_relaxed);
  stats.clean_evictions = clean_evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.cold_signatures += shard.cold.size();
  }
  return stats;
}

void SignatureShardMap::Reaccount(uint64_t signature) {
  if (!tiering_.sizer) return;
  // Caller holds the owning shard's lock.
  Shard& shard = shards_[ShardIndex(signature)];
  auto it = shard.states.find(signature);
  if (it == shard.states.end()) return;
  const size_t now = tiering_.sizer(it->second.state);
  const size_t before = it->second.bytes;
  it->second.bytes = now;
  // A mutable guard is the only mutation path, so its release marks the
  // state as diverged from the persisted artifact.
  it->second.dirty = true;
  if (now >= before) {
    resident_bytes_.fetch_add(now - before, std::memory_order_relaxed);
  } else {
    resident_bytes_.fetch_sub(before - now, std::memory_order_relaxed);
  }
  SetGauges();
}

void SignatureShardMap::SetGauges() const {
  ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.state_resident_signatures->Set(
      static_cast<double>(resident_count_.load(std::memory_order_relaxed)));
  metrics.state_resident_bytes->Set(
      static_cast<double>(resident_bytes_.load(std::memory_order_relaxed)));
}

bool SignatureShardMap::EvictEntryLocked(
    Shard& shard, std::map<uint64_t, Entry>::iterator& it, bool via_sweep) {
  const uint64_t signature = it->first;
  if (it->second.dirty) {
    if (!tiering_.saver) {
      ++it;
      return false;
    }
    const Status saved = tiering_.saver(signature, it->second.state);
    if (!saved.ok()) {
      ROCKHOPPER_LOG(kWarning)
          << "eviction save failed for signature " << signature
          << " (state stays resident): " << saved.ToString();
      ++it;
      return false;
    }
  } else {
    // Clean: the persisted artifact is already current, skip the write.
    clean_evictions_.fetch_add(1, std::memory_order_relaxed);
    ServiceMetrics::Get().state_clean_evictions->Increment();
  }
  ColdEntry cold;
  cold.source = ColdSource::kEvicted;
  cold.disabled = it->second.state.disabled;
  shard.cold.emplace(signature, cold);
  resident_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  resident_count_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics::Get().state_evictions->Increment();
  if (via_sweep) {
    sweep_evictions_.fetch_add(1, std::memory_order_relaxed);
    ServiceMetrics::Get().state_sweep_evictions->Increment();
  }
  it = shard.states.erase(it);
  return true;
}

void SignatureShardMap::MaybeEvict() {
  if (!tiering_.saver) return;
  const size_t budget = budget_bytes_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  if (resident_bytes_.load(std::memory_order_relaxed) <= budget) return;
  // Single-flight: one releasing thread drains to the watermark, racers
  // skip — they would only contend on the same shard locks.
  std::unique_lock<std::mutex> evict_lock(evict_mu_, std::try_to_lock);
  if (!evict_lock.owns_lock()) return;
  const size_t target = static_cast<size_t>(static_cast<double>(budget) *
                                            tiering_.low_watermark);
  // The adversarial clock: ignore second-chance bits, so hot states evict
  // mid-conversation and the transparent fault-in path is exercised under
  // load instead of only on genuinely cold signatures.
  const bool ignore_ref = ROCKHOPPER_BUGGIFY("state.evict.aggressive");
  // Two full passes bound the walk: the first may only clear ref bits, the
  // second then evicts; a third pass could make no further progress (every
  // survivor failed its save).
  for (size_t pass = 0; pass < 2 * kNumShards; ++pass) {
    if (resident_bytes_.load(std::memory_order_relaxed) <= target) break;
    const size_t shard_index =
        clock_shard_.fetch_add(1, std::memory_order_relaxed) % kNumShards;
    Shard& shard = shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.states.lower_bound(shard.clock_next);
    while (it != shard.states.end()) {
      if (resident_bytes_.load(std::memory_order_relaxed) <= target) break;
      if (it->second.ref && !ignore_ref) {
        it->second.ref = false;  // second chance
        ++it;
        continue;
      }
      EvictEntryLocked(shard, it, /*via_sweep=*/false);
    }
    shard.clock_next =
        it != shard.states.end() ? it->first : 0;  // wrap within the shard
    SetGauges();
  }
}

size_t SignatureShardMap::SweepIdle() {
  const uint64_t ttl = tiering_.idle_ttl_ticks;
  // The adversarial sweeper: ignore the TTL entirely and treat every
  // resident state as idle, so the save/fault-in cycle is exercised on hot
  // signatures mid-conversation (mirrors state.evict.aggressive).
  const bool aggressive = ROCKHOPPER_BUGGIFY("state.sweep.aggressive");
  if (ttl == 0 && !aggressive) return 0;
  const uint64_t now = tick_.load(std::memory_order_relaxed);
  // Blocking (not try_lock): the sweeper is a scheduled background pass, so
  // it queues behind a concurrent clock drain instead of silently skipping.
  std::lock_guard<std::mutex> evict_lock(evict_mu_);
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.states.begin(); it != shard.states.end();) {
      const uint64_t idle = now - it->second.last_touch;
      if (!aggressive && (ttl == 0 || idle < ttl)) {
        ++it;
        continue;
      }
      if (EvictEntryLocked(shard, it, /*via_sweep=*/true)) ++evicted;
    }
    SetGauges();
  }
  return evicted;
}

}  // namespace rockhopper::core
