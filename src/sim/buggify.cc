#include "sim/buggify.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace rockhopper::sim {

namespace {

// FNV-1a over the section name: a stable, order-independent identity so a
// section's activation depends only on (seed, name) — never on which thread
// or code path reached the site first.
uint64_t HashName(const char* name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Maps a probability in [0, 1] to a threshold against a uniform uint64 draw.
uint64_t ThresholdFor(double probability) {
  const double p = std::clamp(probability, 0.0, 1.0);
  if (p >= 1.0) return ~0ULL;
  return static_cast<uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
}

}  // namespace

BuggifyRegistry& BuggifyRegistry::Global() {
  static BuggifyRegistry* registry = new BuggifyRegistry();
  return *registry;
}

void BuggifyRegistry::Enable(uint64_t seed, const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_.store(seed, std::memory_order_relaxed);
  activate_threshold_.store(ThresholdFor(options.activate_probability),
                            std::memory_order_relaxed);
  fire_threshold_.store(ThresholdFor(options.fire_probability),
                        std::memory_order_relaxed);
  const uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Eagerly refresh the already-known sections so Snapshot() right after
  // Enable() reports activations; late-registered sections refresh lazily in
  // Fire().
  for (BuggifySection* section : sections_) Refresh(section, epoch);
  enabled_.store(true, std::memory_order_release);
}

void BuggifyRegistry::Disable() {
  enabled_.store(false, std::memory_order_release);
}

BuggifySection* BuggifyRegistry::Register(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (BuggifySection* section : sections_) {
    if (section->name == name) return section;
  }
  // Leaked intentionally: sections are process-lifetime, like metrics
  // instruments, so cached pointers in function-local statics stay valid.
  auto* section = new BuggifySection();
  section->name = name;
  section->name_hash = HashName(name);
  sections_.push_back(section);
  Refresh(section, epoch_.load(std::memory_order_acquire));
  return section;
}

void BuggifyRegistry::Refresh(BuggifySection* section, uint64_t epoch) {
  const uint64_t seed = seed_.load(std::memory_order_relaxed);
  const uint64_t draw =
      common::SplitMix64(seed ^ common::SplitMix64(section->name_hash));
  section->activated.store(
      draw < activate_threshold_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  section->draws.store(0, std::memory_order_relaxed);
  section->passes.store(0, std::memory_order_relaxed);
  section->fires.store(0, std::memory_order_relaxed);
  section->epoch.store(epoch, std::memory_order_release);
}

bool BuggifyRegistry::Fire(BuggifySection* section) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (section->epoch.load(std::memory_order_acquire) != epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (section->epoch.load(std::memory_order_acquire) !=
        epoch_.load(std::memory_order_acquire)) {
      Refresh(section, epoch_.load(std::memory_order_acquire));
    }
  }
  if (!section->activated.load(std::memory_order_relaxed)) return false;
  section->passes.fetch_add(1, std::memory_order_relaxed);
  // Deterministic per-encounter decision: a pure function of (seed, name,
  // encounter index). The counter is the only shared state, so concurrent
  // encounters still draw from the same decision sequence.
  const uint64_t k = section->draws.fetch_add(1, std::memory_order_relaxed);
  const uint64_t draw = common::SplitMix64(
      seed_.load(std::memory_order_relaxed) ^
      common::SplitMix64(section->name_hash + 0x9e3779b97f4a7c15ULL) ^
      common::SplitMix64(k));
  if (draw >= fire_threshold_.load(std::memory_order_relaxed)) return false;
  section->fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<BuggifySectionStats> BuggifyRegistry::Snapshot() const {
  std::vector<BuggifySectionStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(sections_.size());
  for (const BuggifySection* section : sections_) {
    BuggifySectionStats stats;
    stats.name = section->name;
    stats.activated = section->activated.load(std::memory_order_relaxed);
    stats.passes = section->passes.load(std::memory_order_relaxed);
    stats.fires = section->fires.load(std::memory_order_relaxed);
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(),
            [](const BuggifySectionStats& a, const BuggifySectionStats& b) {
              return a.name < b.name;
            });
  return out;
}

uint64_t BuggifyRegistry::TotalFires() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const BuggifySection* section : sections_) {
    total += section->fires.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace rockhopper::sim
