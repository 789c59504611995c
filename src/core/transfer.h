#ifndef ROCKHOPPER_CORE_TRANSFER_H_
#define ROCKHOPPER_CORE_TRANSFER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/hnsw_index.h"

namespace rockhopper::core {

struct ServiceMetrics;

/// Reserved ModelStore signature for the serialized transfer-index artifact.
/// Query signatures are 64-bit plan hashes mixed through SplitMix64; 0 never
/// occurs in practice and the store's per-signature generation cleanup keeps
/// the artifact from colliding with tuner state.
inline constexpr uint64_t kTransferIndexArtifactKey = 0;

/// Knobs for the cross-signature transfer tier (ROADMAP item 3): an HNSW
/// index over workload embeddings retrieves the k nearest already-tuned
/// signatures for each cold arrival, which seeds the fresh tuner Rover-style
/// (safe source weighting, arXiv 2302.04046) and emits a zero-execution
/// retrieval recommendation (arXiv 2503.03826).
struct TransferOptions {
  /// Master switch. Off, the service never constructs the tier and behaves
  /// byte-identically to previous releases.
  bool enabled = false;
  /// Neighbors retrieved per cold-signature consult.
  size_t k = 8;
  /// Neighbor acceptance radius on the dimension-normalized embedding
  /// distance (||a-b|| / sqrt(dim), the scale the legacy transfer scan
  /// used). Farther neighbors are discarded unconditionally.
  double max_distance = 2.0;
  /// Source weight decay: w = exp(-decay * normalized_distance) * ...
  double distance_decay = 4.0;
  /// ... * strike_penalty^(guardrail strikes + failure strikes). Neighbors
  /// with a troubled guardrail history contribute proportionally less;
  /// disabled neighbors contribute nothing.
  double strike_penalty = 0.5;
  /// Below this total neighbor weight the consult is a miss: the tuner
  /// starts from the defaults with no seeds.
  double min_total_weight = 1e-3;
  /// Best observations borrowed from each accepted neighbor.
  size_t seed_observations_per_neighbor = 4;
  /// Cap on total borrowed observations per cold start.
  size_t max_seed_observations = 24;
  /// HNSW shape (see ml/hnsw_index.h).
  int max_neighbors = 16;
  int ef_construction = 128;
  int ef_search = 320;
  /// Every Nth Neighbors() call is shadowed by an ExactKnn scan and the
  /// observed recall@k recorded (rockhopper_transfer_recall_probe). 0: off.
  uint64_t recall_probe_every = 64;
};

struct TransferNeighbor {
  uint64_t signature = 0;
  double distance = 0.0;             ///< raw embedding distance
  double normalized_distance = 0.0;  ///< distance / sqrt(dim)
};

/// Thread-safe facade over HnswIndex for TuningService: registration
/// staging + batched flushes, radius-filtered neighbor retrieval with
/// sampled recall probes, ServiceMetrics instrumentation, and content-
/// addressed persistence. All methods are safe from any thread; internally
/// one mutex serializes index access (searches are sub-millisecond even at
/// 1M signatures, see BENCH_ann.json).
class TransferIndex {
 public:
  TransferIndex(size_t dim, TransferOptions options);

  /// Stages the signature's embedding for indexing. Idempotent per
  /// signature. kInvalidArgument on non-finite embeddings (corrupted
  /// telemetry), which are counted and refused before insertion.
  Status Register(uint64_t signature, const std::vector<double>& embedding);

  /// The k nearest registered signatures within max_distance, excluding
  /// `exclude`, nearest first. Drains any staged inserts first so a
  /// just-registered neighbor is immediately retrievable.
  std::vector<TransferNeighbor> Neighbors(const std::vector<double>& embedding,
                                          size_t k, uint64_t exclude);

  /// Brute-force reference path (ml::HnswIndex::ExactKnn): same contract as
  /// Neighbors. Used by recall probes, small-population benches (fig12) and
  /// operator tooling where exactness beats latency.
  std::vector<TransferNeighbor> ExactNeighbors(
      const std::vector<double>& embedding, size_t k, uint64_t exclude);

  /// Synchronously drains staged inserts into the graph.
  void Flush();

  size_t Size() const;
  size_t ApproxBytes() const;

  /// Order-independent digest of the registered (signature, embedding) set.
  std::string ContentDigest() const;
  /// Digest of the canonical graph rebuild of the current content: replicas
  /// holding the same signatures compare equal regardless of how their live
  /// graphs were batched (see ml/hnsw_index.h).
  std::string CanonicalGraphDigest() const;

  /// Content-only artifact (CRC-guarded, `rockhopper-hnsw v1` header).
  Result<std::string> Serialize() const;
  /// Stages artifact records (optionally only ids in `keep`) that are not
  /// already registered. kDataLoss on damage, kInvalidArgument on
  /// version/dimension mismatch; on any error the index is unchanged.
  Status Load(const std::string& artifact,
              const std::vector<uint64_t>* keep = nullptr);

  const TransferOptions& options() const { return options_; }
  size_t dim() const { return dim_; }

 private:
  std::vector<TransferNeighbor> SearchLocked(
      const std::vector<double>& embedding, size_t k, uint64_t exclude,
      bool exact);
  void FlushLocked();

  const size_t dim_;
  const TransferOptions options_;
  const double norm_;  ///< sqrt(dim), the distance normalizer

  mutable std::mutex mu_;
  ml::HnswIndex index_;
  uint64_t searches_ = 0;
  ServiceMetrics* metrics_;
};

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_TRANSFER_H_
