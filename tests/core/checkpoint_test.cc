#include "core/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "core/observation.h"

namespace rockhopper::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() {
    // Keyed by process id and test name: ctest runs tests as concurrent
    // processes, and a fixture address can repeat across them (it does
    // under ASan).
    path_ = (std::filesystem::temp_directory_path() /
             ("rockhopper_checkpoint_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".log"))
                .string();
    Cleanup();
  }
  ~CheckpointTest() override { Cleanup(); }

  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(CheckpointPath(path_), ec);
    std::filesystem::remove(CheckpointPath(path_) + ".tmp", ec);
    auto segments = ObservationJournal::ListSegments(path_);
    if (segments.ok()) {
      for (const auto& [index, seg_path] : *segments) {
        std::filesystem::remove(seg_path, ec);
      }
    }
    auto deltas = ListCheckpointDeltas(path_);
    if (deltas.ok()) {
      for (const auto& [index, delta_path] : *deltas) {
        std::filesystem::remove(delta_path, ec);
        std::filesystem::remove(delta_path + ".tmp", ec);
      }
    }
  }

  Observation Obs(int iteration, double runtime) {
    Observation o;
    o.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0};
    o.data_size = 1.5;
    o.runtime = runtime;
    o.iteration = iteration;
    return o;
  }

  /// Appends `n` observations for `signature` to the live journal.
  void Append(ObservationJournal* journal, uint64_t signature, int n,
              int first_iteration = 0) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          journal->Append(signature, Obs(first_iteration + i, 1.0 + i)).ok());
    }
  }

  std::string ReadFile(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void WriteFile(const std::string& p, const std::string& content) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
  }

  size_t SegmentCount() {
    auto segments = ObservationJournal::ListSegments(path_);
    return segments.ok() ? segments->size() : 0;
  }

  std::string SegmentPath(uint64_t index) const {
    return path_ + ".seg-" + std::to_string(index);
  }

  /// A policy whose chain is always due: every checkpoint is a full image.
  static DeltaCheckpointPolicy FullImage() {
    DeltaCheckpointPolicy policy;
    policy.max_chain = 0;
    return policy;
  }

  std::string path_;
};

TEST_F(CheckpointTest, AbsorbsSegmentsAndTruncates) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 5u);
  EXPECT_EQ(report->segments_absorbed, 1u);
  EXPECT_GE(report->last_segment, 1u);
  // Truncation: the absorbed segment is gone from disk.
  EXPECT_EQ(SegmentCount(), 0u);
  EXPECT_TRUE(std::filesystem::exists(CheckpointPath(path_)));

  // More traffic after the checkpoint lands in the fresh live file.
  Append(&*journal, 9, 3, /*first_iteration=*/0);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records, 5u);
  EXPECT_EQ(chain->tail_records, 3u);
  EXPECT_EQ(chain->store.Count(7), 5u);
  EXPECT_EQ(chain->store.Count(9), 3u);
}

TEST_F(CheckpointTest, RepeatedCheckpointsAccumulateAndAdvanceSeq) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  Append(&*journal, 7, 4);
  Result<CheckpointReport> first = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records, 4u);

  Append(&*journal, 7, 4, /*first_iteration=*/4);
  Result<CheckpointReport> second = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(second.ok());
  // The second checkpoint holds the full absorbed history and a strictly
  // higher sequence number.
  EXPECT_EQ(second->records, 8u);
  EXPECT_GT(second->last_segment, first->last_segment);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_seq, second->last_segment);
  EXPECT_EQ(chain->store.Count(7), 8u);
  // Replay preserves order exactly.
  const std::vector<Observation>& history = chain->store.History(7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(history[i].iteration, i);
}

/// Regression: after a checkpoint absorbs and deletes seg-1, a naive
/// "highest on-disk segment + 1" rotation would reuse index 1, and the next
/// compaction would discard the reused segment as a stale pre-checkpoint
/// leftover — silently losing acked records.
TEST_F(CheckpointTest, RotationIndexNeverReusedAfterTruncation) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());

  size_t expected = 0;
  for (int round = 0; round < 3; ++round) {
    Append(&*journal, 7, 3, /*first_iteration=*/round * 3);
    expected += 3;
    Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->records, expected) << "round " << round;
  }
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records + chain->tail_records, expected);
  EXPECT_EQ(chain->store.Count(7), expected);
}

/// Same reuse hazard across a restart: the in-memory hint dies with the
/// process, so the compactor's min_index floor must carry monotonicity.
TEST_F(CheckpointTest, RotationIndexMonotonicAcrossReopen) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, 7, 3);
    Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(journal->Close().ok());
  }
  {
    // Fresh process image: next_segment_hint_ starts at zero again.
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, 7, 3, /*first_iteration=*/3);
    Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->records, 6u);
    ASSERT_TRUE(journal->Close().ok());
  }
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(7), 6u);
}

TEST_F(CheckpointTest, TornCheckpointTailRecoversPrefix) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);
  ASSERT_TRUE(CheckpointLive(&*journal, FullImage()).ok());
  ASSERT_TRUE(journal->Close().ok());

  // Tear the checkpoint mid-record: the last line loses its tail bytes.
  std::string content = ReadFile(CheckpointPath(path_));
  ASSERT_FALSE(content.empty());
  WriteFile(CheckpointPath(path_), content.substr(0, content.size() - 10));

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  // The longest valid prefix survives; only the torn record is dropped.
  EXPECT_EQ(chain->checkpoint_records, 4u);
  EXPECT_EQ(chain->records_dropped, 1u);
  EXPECT_EQ(chain->store.Count(7), 4u);
}

/// A live journal that ends in a torn record reads as not live-clean: a
/// writer that appended straight behind the torn bytes would have its
/// records dropped with them by the next recovery. One compaction seals the
/// live file and keeps its valid prefix, so later appends survive.
TEST_F(CheckpointTest, CompactionSealsDamagedLiveTail) {
  {
    Result<ObservationJournal> journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, 7, 3);
    ASSERT_TRUE(journal->Close().ok());
  }
  const std::string content = ReadFile(path_);
  WriteFile(path_, content.substr(0, content.size() - 5));  // tear record 3
  {
    Result<JournalChain> chain = RecoverJournalChain(path_);
    ASSERT_TRUE(chain.ok());
    EXPECT_FALSE(chain->clean);
    EXPECT_FALSE(chain->live_clean);
    EXPECT_EQ(chain->store.Count(7), 2u);
  }

  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Result<CheckpointReport> compacted = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->records, 2u);
  EXPECT_EQ(compacted->records_dropped, 1u);
  Append(&*journal, 9, 2);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean) << chain->tail_status.ToString();
  EXPECT_TRUE(chain->live_clean);
  EXPECT_EQ(chain->store.Count(7), 2u);
  EXPECT_EQ(chain->store.Count(9), 2u);
}

TEST_F(CheckpointTest, CheckpointMissingDeclaredRecordsIsDataLoss) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);
  ASSERT_TRUE(CheckpointLive(&*journal, FullImage()).ok());
  ASSERT_TRUE(journal->Close().ok());

  // Drop a whole trailing line (clean line boundary): every remaining line
  // has a valid CRC, so only the header's declared record count can catch it.
  std::string content = ReadFile(CheckpointPath(path_));
  size_t cut = content.find_last_of('\n', content.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  WriteFile(CheckpointPath(path_), content.substr(0, cut + 1));

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(chain->checkpoint_records, 4u);
}

TEST_F(CheckpointTest, CrashMidTruncateNeverDoubleCounts) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  // Checkpoint (the rotation seals the live file into the absorbed
  // segment), then simulate a crash between the checkpoint rename and the
  // segment unlink by restoring the absorbed segment's bytes.
  const std::string segment_bytes = ReadFile(path_);
  Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 5u);
  const std::string segment_path = SegmentPath(report->last_segment);
  ASSERT_FALSE(std::filesystem::exists(segment_path));
  WriteFile(segment_path, segment_bytes);

  // Recovery must skip the leftover: its index <= checkpoint_seq.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->checkpoint_records, 5u);
  EXPECT_EQ(chain->store.Count(7), 5u) << "absorbed segment replayed twice";

  // A later compaction finishes the truncation without re-absorbing.
  Result<CheckpointReport> again = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 5u);
  EXPECT_FALSE(std::filesystem::exists(segment_path));
  ASSERT_TRUE(journal->Close().ok());
}

TEST_F(CheckpointTest, StaleTmpCheckpointIgnored) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);

  // A crash mid-compaction leaves a garbage .tmp; it must never be read.
  WriteFile(CheckpointPath(path_) + ".tmp", "garbage from a dead compactor\n");

  Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 3u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 3u);
}

TEST_F(CheckpointTest, RecoverNothingIsNotFound) {
  Result<JournalChain> chain = RecoverJournalChain(path_);
  EXPECT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, CheckpointWithGroupCommitActive) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->StartGroupCommit().ok());
  Append(&*journal, 7, 20);
  ASSERT_TRUE(journal->Sync().ok());

  // Rotation is the sequence barrier: every acked record must land in the
  // checkpoint even though the writer thread is still running.
  Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records, 20u);

  Append(&*journal, 9, 5);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(7), 20u);
  EXPECT_EQ(chain->store.Count(9), 5u);
}

TEST_F(CheckpointTest, RepeatedRotationNeverDropsConcurrentAppends) {
  // Regression: Rotate() used to close the live file before renaming it, so
  // an Append racing the swap could observe a momentarily-closed journal and
  // fail ("journal is not open") even though the journal was healthy —
  // acked-and-dropped records under an online checkpoint cadence. The rename
  // now happens with the stream still open, so every Append during any
  // number of rotations must succeed and every record must survive in the
  // chain exactly once.
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->StartGroupCommit().ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<uint64_t> append_failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t signature = 100 + static_cast<uint64_t>(t);
      for (int i = 0; i < kPerThread; ++i) {
        if (!journal->Append(signature, Obs(i, 1.0 + i)).ok()) {
          append_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Checkpoint continuously while the appenders run: each call rotates the
  // live file, maximizing swaps racing the lock-free is-open fast path.
  for (int round = 0; round < 12; ++round) {
    Result<CheckpointReport> report = CheckpointLive(&*journal, FullImage());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(append_failures.load(), 0u);
  EXPECT_EQ(journal->async_write_errors(), 0u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(chain->store.Count(100 + static_cast<uint64_t>(t)),
              static_cast<size_t>(kPerThread));
  }
}

// ---------------------------------------------------------------------------
// Incremental (delta) checkpoints.

class DeltaCheckpointTest : public CheckpointTest {
 protected:
  DeltaCheckpointPolicy Policy(size_t max_chain = 8, bool compress = true) {
    DeltaCheckpointPolicy policy;
    policy.max_chain = max_chain;
    policy.compress = compress;
    // Size-triggered compaction off: these tests drive the chain length
    // explicitly.
    policy.max_bytes_fraction = 0.0;
    return policy;
  }

  size_t DeltaCount() {
    auto deltas = ListCheckpointDeltas(path_);
    return deltas.ok() ? deltas->size() : 0;
  }
};

TEST_F(DeltaCheckpointTest, FirstCheckpointIsFullThenDeltasStack) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 5);

  // No full image yet: the incremental path must produce one.
  Result<CheckpointReport> first = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->delta_index, 0u);
  EXPECT_EQ(first->records, 5u);

  Append(&*journal, 9, 3);
  Result<CheckpointReport> second = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->delta_index, 1u);
  EXPECT_EQ(second->records, 3u) << "delta absorbs only the churn";
  EXPECT_GT(second->bytes_written, 0u);

  Append(&*journal, 7, 2, /*first_iteration=*/5);
  Result<CheckpointReport> third = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->delta_index, 2u);
  EXPECT_EQ(third->records, 2u);
  EXPECT_EQ(DeltaCount(), 2u);
  ASSERT_TRUE(journal->Close().ok());

  // Recovery replays image + chain, byte-identical history per signature.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 2u);
  EXPECT_EQ(chain->checkpoint_records, 10u);
  EXPECT_EQ(chain->store.Count(7), 7u);
  EXPECT_EQ(chain->store.Count(9), 3u);
  const std::vector<Observation>& history = chain->store.History(7);
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].iteration, static_cast<int>(i));
  }
}

TEST_F(DeltaCheckpointTest, SteadyStateDeltaBytesTrackChurnNotPopulation) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  // Large population in the full image.
  for (uint64_t sig = 0; sig < 200; ++sig) Append(&*journal, sig, 2);
  Result<CheckpointReport> full = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->delta_index, 0u);
  const size_t full_bytes = full->bytes_written;

  // 1% churn: two signatures touched.
  Append(&*journal, 3, 2, /*first_iteration=*/2);
  Append(&*journal, 4, 2, /*first_iteration=*/2);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  EXPECT_EQ(delta->records, 4u);
  EXPECT_LT(delta->bytes_written, full_bytes / 3)
      << "delta I/O must be proportional to churn, not population";
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(3), 4u);
  EXPECT_EQ(chain->store.Count(0), 2u);
}

TEST_F(DeltaCheckpointTest, ChainCompactsAtMaxChainAndRemovesDeltas) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(2)).ok());  // full
  for (int round = 0; round < 2; ++round) {
    Append(&*journal, 8 + static_cast<uint64_t>(round), 1);
    Result<CheckpointReport> report = CheckpointLive(&*journal, Policy(2));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->delta_index, static_cast<uint64_t>(round + 1));
  }
  EXPECT_EQ(DeltaCount(), 2u);

  // Chain is at max length: the next checkpoint collapses it.
  Append(&*journal, 20, 1);
  Result<CheckpointReport> compacted = CheckpointLive(&*journal, Policy(2));
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->delta_index, 0u);
  EXPECT_EQ(compacted->deltas_absorbed, 2u);
  EXPECT_EQ(compacted->records, 5u);
  EXPECT_EQ(DeltaCount(), 0u) << "collapsed deltas must be removed";
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->checkpoint_records, 5u);
}

TEST_F(DeltaCheckpointTest, RawEncodingRoundTrips) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(8, /*compress=*/false)).ok());
  Append(&*journal, 9, 3);
  Result<CheckpointReport> delta =
      CheckpointLive(&*journal, Policy(8, /*compress=*/false));
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(9), 3u);
}

TEST_F(DeltaCheckpointTest, StaleDeltaTmpIgnoredByRecovery) {
  // Crash mid-delta-write leaves a .tmp that is never renamed: recovery and
  // later compactions must be oblivious to it.
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 4);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  WriteFile(CheckpointDeltaPath(path_, 1) + ".tmp",
            "rockhopper-ckpt-delta v1 1 1 2 9 lz\ngarbage");
  Append(&*journal, 9, 2);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 4u);
  EXPECT_EQ(chain->store.Count(9), 2u);
}

TEST_F(DeltaCheckpointTest, CrashBetweenDeltaPublishAndTruncateNeverDoubles) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());

  // Seal churn into a segment and delta it, then simulate a crash between
  // the delta rename and the segment unlink by restoring the segment's
  // bytes (the live file's, which the rotation sealed).
  Append(&*journal, 9, 4);
  const std::string segment_bytes = ReadFile(path_);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  const std::string segment_path = SegmentPath(delta->last_segment);
  ASSERT_FALSE(std::filesystem::exists(segment_path));
  WriteFile(segment_path, segment_bytes);

  // Recovery skips the leftover: its index <= the chain seq.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->store.Count(9), 4u) << "absorbed segment replayed twice";

  // The next delta writer finishes the truncation without re-absorbing
  // (it absorbs only the empty live file its rotation sealed).
  Result<CheckpointReport> again = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 0u);
  EXPECT_FALSE(std::filesystem::exists(segment_path));
  ASSERT_TRUE(journal->Close().ok());
}

TEST_F(DeltaCheckpointTest, CrashBetweenCompactionAndDeltaRemovalSkipsStale) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1
  const std::string delta_bytes = ReadFile(CheckpointDeltaPath(path_, 1));

  // Full compaction collapses the chain; simulate a crash before the delta
  // unlink by restoring the collapsed delta's bytes.
  Append(&*journal, 11, 1);
  Result<CheckpointReport> full = CheckpointLive(&*journal, Policy(0));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->deltas_absorbed, 1u);
  WriteFile(CheckpointDeltaPath(path_, 1), delta_bytes);

  // The restored delta's base-seq references the pre-compaction image, so
  // recovery must treat it as stale — replaying it would double-count 9.
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 0u);
  EXPECT_EQ(chain->store.Count(9), 2u) << "stale delta replayed";
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(11), 1u);

  // The next writer deletes the stale file.
  Result<CheckpointReport> next = CheckpointLive(&*journal, Policy(0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(DeltaCount(), 0u);
  ASSERT_TRUE(journal->Close().ok());
}

/// Regression: a stale leftover at the index the next delta takes used to
/// be deleted as stale right after that delta's rename replaced it — the
/// new delta and the segments it absorbed were gone.
TEST_F(DeltaCheckpointTest, DeltaPublishedOverStaleLeftoverSurvives) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1
  const std::string delta_bytes = ReadFile(CheckpointDeltaPath(path_, 1));
  Append(&*journal, 11, 1);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy(0)).ok());  // collapses
  WriteFile(CheckpointDeltaPath(path_, 1), delta_bytes);   // stale leftover

  Append(&*journal, 13, 4);
  Result<CheckpointReport> delta = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->delta_index, 1u);
  EXPECT_TRUE(std::filesystem::exists(CheckpointDeltaPath(path_, 1)));
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean);
  EXPECT_EQ(chain->deltas_replayed, 1u);
  EXPECT_EQ(chain->store.Count(13), 4u) << "published delta deleted as stale";
  EXPECT_EQ(chain->store.Count(9), 2u);
  EXPECT_EQ(chain->store.Count(11), 1u);
  EXPECT_EQ(chain->store.Count(7), 3u);
}

/// A published delta whose header is damaged must not read as a stale
/// leftover (which recovery skips silently): the chain breaks there and
/// recovery reports the loss against the file. The next writer compacts to
/// a full image instead of stacking a delta past the break, where recovery
/// would drop it too.
TEST_F(DeltaCheckpointTest, DamagedDeltaHeaderIsDataLossNotStale) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 4);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1

  const std::string delta_path = CheckpointDeltaPath(path_, 1);
  const std::string bytes = ReadFile(delta_path);
  for (const std::string& damaged :
       {"rockhopper-ckpt-delte" + bytes.substr(21),   // magic
        "rockhopper-ckpt-delta v1 2" + bytes.substr(26)}) {  // index != k
    WriteFile(delta_path, damaged);
    Result<JournalChain> chain = RecoverJournalChain(path_);
    ASSERT_TRUE(chain.ok());
    EXPECT_FALSE(chain->clean);
    EXPECT_TRUE(chain->live_clean);  // the damage is not in the live file
    EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
    EXPECT_NE(chain->tail_status.message().find(delta_path), std::string::npos)
        << chain->tail_status.ToString();
    EXPECT_EQ(chain->deltas_replayed, 0u);
    EXPECT_EQ(chain->store.Count(7), 3u);
    EXPECT_EQ(chain->store.Count(9), 0u);
  }

  Append(&*journal, 11, 1);
  Result<CheckpointReport> next = CheckpointLive(&*journal, Policy());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->delta_index, 0u);
  EXPECT_FALSE(std::filesystem::exists(delta_path));
  ASSERT_TRUE(journal->Close().ok());
  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean) << chain->tail_status.ToString();
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(11), 1u);
}

/// The full compaction past a damaged link is forced whatever the policy
/// says, warns once naming the file it drops, and leaves a healthy chain:
/// the next compaction stacks a delta again.
TEST_F(DeltaCheckpointTest, DamagedLinkCompactionWarnsThenChainResumes) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  const DeltaCheckpointPolicy policy = Policy(/*max_chain=*/1000);
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, policy).ok());
  Append(&*journal, 9, 4);
  ASSERT_TRUE(CheckpointLive(&*journal, policy).ok());  // delta 1
  const std::string delta_path = CheckpointDeltaPath(path_, 1);
  const std::string bytes = ReadFile(delta_path);
  WriteFile(delta_path, "rockhopper-ckpt-delte" + bytes.substr(21));

  Append(&*journal, 11, 1);
  testing::internal::CaptureStderr();
  Result<CheckpointReport> full = CheckpointLive(&*journal, policy);
  const std::string warning = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->delta_index, 0u);
  EXPECT_NE(warning.find(delta_path), std::string::npos) << warning;
  EXPECT_NE(warning.find("damaged"), std::string::npos) << warning;

  Append(&*journal, 13, 2);
  testing::internal::CaptureStderr();
  Result<CheckpointReport> next = CheckpointLive(&*journal, policy);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->delta_index, 1u);
  EXPECT_EQ(DeltaCount(), 1u);
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->clean) << chain->tail_status.ToString();
  EXPECT_EQ(chain->deltas_replayed, 1u);
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(9), 0u);  // lost with the damaged delta
  EXPECT_EQ(chain->store.Count(11), 1u);
  EXPECT_EQ(chain->store.Count(13), 2u);
}

TEST_F(DeltaCheckpointTest, TornCompressedDeltaIsDataLossNotGarbage) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 3);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 9, 5);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1

  // External corruption: truncate the published delta's compressed body.
  const std::string delta_path = CheckpointDeltaPath(path_, 1);
  const std::string bytes = ReadFile(delta_path);
  WriteFile(delta_path, bytes.substr(0, bytes.size() - 3));
  ASSERT_TRUE(journal->Close().ok());

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(chain->records_dropped, 5u) << "whole envelope lost, counted";
  // The full image before the damaged delta replays intact; the damaged
  // delta contributes nothing (never garbage).
  EXPECT_EQ(chain->store.Count(7), 3u);
  EXPECT_EQ(chain->store.Count(9), 0u);
}

TEST_F(DeltaCheckpointTest, DamagedMiddleDeltaStopsChainReplay) {
  Result<ObservationJournal> journal = ObservationJournal::Open(path_);
  ASSERT_TRUE(journal.ok());
  Append(&*journal, 7, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());
  Append(&*journal, 8, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 1
  Append(&*journal, 9, 2);
  ASSERT_TRUE(CheckpointLive(&*journal, Policy()).ok());  // delta 2
  ASSERT_TRUE(journal->Close().ok());

  // Corrupt delta 1: delta 2 must not replay past the break (its records
  // would be out of order relative to the lost ones).
  const std::string delta1 = CheckpointDeltaPath(path_, 1);
  std::string bytes = ReadFile(delta1);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFile(delta1, bytes);

  Result<JournalChain> chain = RecoverJournalChain(path_);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->clean);
  EXPECT_EQ(chain->store.Count(7), 2u);
  EXPECT_EQ(chain->store.Count(8), 0u);
  EXPECT_EQ(chain->store.Count(9), 0u) << "chain replayed past the break";
  EXPECT_EQ(chain->records_dropped, 4u);
}

}  // namespace
}  // namespace rockhopper::core
