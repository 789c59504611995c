#include "core/observation.h"

#include <algorithm>

namespace rockhopper::core {

ObservationStore::ObservationStore(ObservationStore&& other) noexcept {
  for (size_t i = 0; i < kNumShards; ++i) {
    std::lock_guard<std::mutex> lock(other.shards_[i].mu);
    shards_[i].log = std::move(other.shards_[i].log);
  }
  retention_window_ = other.retention_window_.load();
  approx_bytes_ = other.approx_bytes_.exchange(0);
  truncated_ = other.truncated_.exchange(0);
}

ObservationStore& ObservationStore::operator=(
    ObservationStore&& other) noexcept {
  if (this != &other) {
    for (size_t i = 0; i < kNumShards; ++i) {
      std::scoped_lock lock(shards_[i].mu, other.shards_[i].mu);
      shards_[i].log = std::move(other.shards_[i].log);
    }
    retention_window_ = other.retention_window_.load();
    approx_bytes_ = other.approx_bytes_.exchange(0);
    truncated_ = other.truncated_.exchange(0);
  }
  return *this;
}

void ObservationStore::TruncateLocked(Log& entry, size_t window) {
  if (window == 0 || entry.history.size() <= window) return;
  const size_t drop = entry.history.size() - window;
  size_t freed = 0;
  for (size_t i = 0; i < drop; ++i) {
    freed += ApproxObservationBytes(entry.history[i]);
  }
  entry.history.erase(entry.history.begin(),
                      entry.history.begin() + static_cast<std::ptrdiff_t>(drop));
  approx_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  truncated_.fetch_add(drop, std::memory_order_relaxed);
}

void ObservationStore::Append(uint64_t signature, Observation obs) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  Log& entry = shard.log[signature];
  if (obs.iteration < 0) obs.iteration = static_cast<int>(entry.total);
  ++entry.total;
  approx_bytes_.fetch_add(ApproxObservationBytes(obs),
                          std::memory_order_relaxed);
  entry.history.push_back(std::move(obs));
  TruncateLocked(entry, retention_window_.load(std::memory_order_relaxed));
}

const std::vector<Observation>& ObservationStore::History(
    uint64_t signature) const {
  static const std::vector<Observation>* const kEmpty =
      new std::vector<Observation>();
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? *kEmpty : it->second.history;
}

ObservationWindow ObservationStore::LastN(uint64_t signature, size_t n) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  if (it == shard.log.end()) return {};
  const std::vector<Observation>& history = it->second.history;
  const size_t start = history.size() > n ? history.size() - n : 0;
  return ObservationWindow(history.begin() + static_cast<std::ptrdiff_t>(start),
                           history.end());
}

size_t ObservationStore::Count(uint64_t signature) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? 0 : it->second.history.size();
}

size_t ObservationStore::TotalAppended(uint64_t signature) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.log.find(signature);
  return it == shard.log.end() ? 0 : it->second.total;
}

void ObservationStore::SetRetention(size_t window) {
  retention_window_.store(window, std::memory_order_relaxed);
  if (window == 0) return;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [sig, entry] : shard.log) TruncateLocked(entry, window);
  }
}

std::vector<uint64_t> ObservationStore::Signatures() const {
  std::vector<uint64_t> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [sig, _] : shard.log) out.push_back(sig);
  }
  // Shards partition by modulus, so per-shard order alone is not global
  // order; sort to keep the pre-sharding (sorted-map) iteration contract.
  std::sort(out.begin(), out.end());
  return out;
}

Result<double> MinRuntime(const ObservationWindow& window) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  double best = window.front().runtime;
  for (const Observation& obs : window) best = std::min(best, obs.runtime);
  return best;
}

}  // namespace rockhopper::core
