#ifndef ROCKHOPPER_SIM_BUGGIFY_H_
#define ROCKHOPPER_SIM_BUGGIFY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rockhopper::sim {

/// One named fault-injection site. Registered lazily on first encounter and
/// never freed (sections live for the process lifetime, like metrics
/// instruments), so the macro can cache the pointer in a function-local
/// static.
struct BuggifySection {
  std::string name;
  uint64_t name_hash = 0;
  /// Epoch of the registry run this section's activation was computed for.
  std::atomic<uint64_t> epoch{0};
  /// Whether the current seed activated this section at all.
  std::atomic<bool> activated{false};
  /// Monotonic per-encounter index; the fire decision for encounter k is a
  /// pure function of (seed, name, k), so the k-th encounter of a section
  /// fires identically across runs regardless of wall-clock interleaving.
  std::atomic<uint64_t> draws{0};
  /// Encounters evaluated while the registry was enabled / that fired.
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> fires{0};
};

/// Plain-value view of a section's per-run statistics.
struct BuggifySectionStats {
  std::string name;
  bool activated = false;
  uint64_t passes = 0;
  uint64_t fires = 0;
};

/// FoundationDB-style Buggify registry (SNIPPETS.md snippet 2): every
/// ROCKHOPPER_BUGGIFY("name") site asks two seeded questions — is this
/// *section* active for the current seed (decided once per Enable, from the
/// section name alone, so the answer does not depend on which thread reaches
/// the site first), and does this *encounter* fire (decided per encounter
/// index). Disabled — the default — every site is one relaxed atomic load
/// and returns false, so a ROCKHOPPER_SIM=ON binary with Buggify off behaves
/// exactly like a production build.
///
/// Thread-safe; the only mutation racing the hot path is Enable/Disable,
/// which tests and the simulation runner call at quiescence.
/// Per-run probabilities of the registry (namespace-scope so it can serve as
/// a default argument inside BuggifyRegistry).
struct BuggifyOptions {
  /// Probability a named section is active at all for a given seed.
  double activate_probability = 0.25;
  /// Probability an encounter of an active section fires.
  double fire_probability = 0.05;
};

class BuggifyRegistry {
 public:
  using Options = BuggifyOptions;

  /// The process-wide registry used by the ROCKHOPPER_BUGGIFY macro.
  static BuggifyRegistry& Global();

  /// Arms the registry for `seed`: bumps the epoch so every section lazily
  /// recomputes its activation and restarts its encounter counter. Safe to
  /// call repeatedly (the per-seed sweep re-arms between runs).
  void Enable(uint64_t seed, const Options& options = Options());

  /// Disarms every section (sites return to the single-load fast path).
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  /// Interns a section by name; returns a stable pointer. Idempotent.
  BuggifySection* Register(const char* name);

  /// One encounter of `section`: false unless the registry is enabled, the
  /// section is activated for the current seed, and this encounter's seeded
  /// draw fires.
  bool Fire(BuggifySection* section);

  /// Per-section stats for the current epoch, sorted by name.
  std::vector<BuggifySectionStats> Snapshot() const;

  /// Sections that fired at least once this epoch (for run reports).
  uint64_t TotalFires() const;

 private:
  BuggifyRegistry() = default;

  /// Recomputes `section`'s activation for the current epoch if stale.
  void Refresh(BuggifySection* section, uint64_t epoch);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seed_{0};
  std::atomic<uint64_t> epoch_{0};
  /// Probabilities scaled to 64-bit thresholds (draw < threshold fires).
  std::atomic<uint64_t> activate_threshold_{0};
  std::atomic<uint64_t> fire_threshold_{0};
  mutable std::mutex mu_;  ///< guards sections_ and epoch transitions
  std::vector<BuggifySection*> sections_;
};

}  // namespace rockhopper::sim

/// The fault-injection site marker. Reads as a boolean expression:
///
///   if (ROCKHOPPER_BUGGIFY("journal.append.short_write")) { ...inject... }
///
/// Compiled out (ROCKHOPPER_SIM=OFF, the default) it is the literal `false`
/// and the injected branch is dead code — zero runtime cost. Compiled in,
/// the section pointer is interned once per site and each evaluation is one
/// registry call (a relaxed load when Buggify is disabled at runtime).
#if defined(ROCKHOPPER_SIM_ENABLED)
#define ROCKHOPPER_BUGGIFY(name)                                              \
  ([]() -> bool {                                                             \
    static ::rockhopper::sim::BuggifySection* rockhopper_buggify_section =    \
        ::rockhopper::sim::BuggifyRegistry::Global().Register(name);          \
    return ::rockhopper::sim::BuggifyRegistry::Global().Fire(                 \
        rockhopper_buggify_section);                                          \
  }())
#else
#define ROCKHOPPER_BUGGIFY(name) (false)
#endif

#endif  // ROCKHOPPER_SIM_BUGGIFY_H_
