// Fuzz-style crash-shape coverage for RecoverJournalChain, the one journal
// reader, over every file a chain can hold: a bare live journal, a sealed
// segment, a raw (enc=raw) delta body, and a delta header line. Every
// truncation point and every single-bit corruption inside the file's final
// record (or header line) must recover the records before it intact,
// report kDataLoss, and never crash.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/journal.h"

namespace rockhopper::core {
namespace {

class JournalFuzzTest : public ::testing::Test {
 protected:
  JournalFuzzTest() {
    // Keyed by process id and test name: ctest runs tests as concurrent
    // processes, and a fixture address can repeat across them (it does
    // under ASan).
    path_ = (std::filesystem::temp_directory_path() /
             ("rockhopper_journal_fuzz_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".log"))
                .string();
    Cleanup();
  }
  ~JournalFuzzTest() override { Cleanup(); }

  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(CheckpointPath(path_), ec);
    std::filesystem::remove(CheckpointDeltaPath(path_, 1), ec);
    if (auto segments = ObservationJournal::ListSegments(path_);
        segments.ok()) {
      for (const auto& [index, segment] : *segments) {
        std::filesystem::remove(segment, ec);
      }
    }
  }

  static Observation Obs(int iteration) {
    Observation o;
    o.config = {128.0 * 1024 * 1024, 10.0 * 1024 * 1024, 200.0 + iteration};
    o.data_size = 1.5 + 0.25 * iteration;
    o.runtime = 10.0 + iteration;
    o.iteration = iteration;
    o.failed = (iteration % 2) == 1;
    return o;
  }

  static void Append(ObservationJournal* journal, uint64_t signature,
                     int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(journal->Append(signature, Obs(i)).ok());
    }
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Offset where the last line of `bytes` (ending in '\n') starts.
  static size_t LastLineStart(const std::string& bytes) {
    return bytes.rfind('\n', bytes.size() - 2) + 1;
  }

  /// A bare journal of kRecords records of kSignature.
  void WriteBareJournal() {
    auto journal = ObservationJournal::Open(path_);
    ASSERT_TRUE(journal.ok());
    Append(&*journal, kSignature, kRecords);
    ASSERT_TRUE(journal->Close().ok());
  }

  /// kRecords of kSignature sealed into segment 1, then kRecords of kOther
  /// in the live tail. Returns the segment's path.
  std::string WriteSegmentChain() {
    auto journal = ObservationJournal::Open(path_);
    EXPECT_TRUE(journal.ok());
    Append(&*journal, kSignature, kRecords);
    auto rotated = journal->Rotate();
    EXPECT_TRUE(rotated.ok());
    Append(&*journal, kOther, kRecords);
    EXPECT_TRUE(journal->Close().ok());
    return rotated->segment_path;
  }

  /// kRecords of kOther in a full image, then kRecords of kSignature in a
  /// raw delta 1 stacked on it. Returns the delta's path.
  std::string WriteDeltaChain() {
    auto journal = ObservationJournal::Open(path_);
    EXPECT_TRUE(journal.ok());
    DeltaCheckpointPolicy raw;
    raw.compress = false;
    Append(&*journal, kOther, kRecords);
    EXPECT_TRUE(CheckpointLive(&*journal, raw).ok());
    Append(&*journal, kSignature, kRecords);
    auto delta = CheckpointLive(&*journal, raw);
    EXPECT_TRUE(delta.ok());
    EXPECT_EQ(delta->delta_index, 1u);
    EXPECT_TRUE(journal->Close().ok());
    return CheckpointDeltaPath(path_, 1);
  }

  /// Rewrites `target` with each mutation of its bytes (`mutate` returns
  /// false to skip a position), recovers the chain, and hands the result to
  /// `check`. Restores the original bytes afterwards.
  void Sweep(const std::string& target, size_t begin, size_t end,
             const std::function<bool(size_t, std::string*)>& mutate,
             const std::function<void(const JournalChain&)>& check) {
    const std::string bytes = ReadFile(target);
    for (size_t pos = begin; pos < end; ++pos) {
      std::string mutated = bytes;
      if (!mutate(pos, &mutated)) continue;
      WriteFile(target, mutated);
      SCOPED_TRACE(target + " mutated at byte " + std::to_string(pos));
      Result<JournalChain> chain = RecoverJournalChain(path_);
      ASSERT_TRUE(chain.ok()) << chain.status().ToString();
      EXPECT_FALSE(chain->clean);
      EXPECT_EQ(chain->tail_status.code(), StatusCode::kDataLoss);
      check(*chain);
    }
    WriteFile(target, bytes);
  }

  /// Cuts `target` strictly inside its final record.
  void SweepTruncations(const std::string& target,
                        const std::function<void(const JournalChain&)>& check) {
    const std::string bytes = ReadFile(target);
    Sweep(
        target, LastLineStart(bytes) + 1, bytes.size(),
        [](size_t cut, std::string* mutated) {
          mutated->resize(cut);
          return true;
        },
        check);
  }

  /// XORs `mask` into each byte of [begin, end).
  void SweepFlips(const std::string& target, size_t begin, size_t end,
                  char mask,
                  const std::function<void(const JournalChain&)>& check,
                  const std::function<bool(size_t)>& skip = nullptr) {
    Sweep(
        target, begin, end,
        [&](size_t pos, std::string* mutated) {
          if (skip && skip(pos)) return false;
          (*mutated)[pos] = static_cast<char>((*mutated)[pos] ^ mask);
          return true;
        },
        check);
  }

  /// `signature`'s recovered history is exactly the first `n` generated
  /// observations.
  static void ExpectPrefix(const JournalChain& chain, uint64_t signature,
                           int n) {
    const std::vector<Observation>& history = chain.store.History(signature);
    ASSERT_EQ(history.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) ExpectGenerated(history[i], i);
  }

  /// `signature`'s recovered history is an ordered subset of the generated
  /// observations — a damaged header may cost records, never invent them.
  static void ExpectSubsequence(const JournalChain& chain,
                                uint64_t signature) {
    int previous = -1;
    for (const Observation& obs : chain.store.History(signature)) {
      EXPECT_GT(obs.iteration, previous);
      ASSERT_LT(obs.iteration, kRecords);
      ExpectGenerated(obs, obs.iteration);
      previous = obs.iteration;
    }
  }

  static void ExpectGenerated(const Observation& got, int iteration) {
    const Observation expected = Obs(iteration);
    EXPECT_EQ(got.iteration, expected.iteration);
    EXPECT_EQ(got.failed, expected.failed);
    EXPECT_DOUBLE_EQ(got.runtime, expected.runtime);
    EXPECT_DOUBLE_EQ(got.data_size, expected.data_size);
    ASSERT_EQ(got.config.size(), expected.config.size());
    for (size_t d = 0; d < expected.config.size(); ++d) {
      EXPECT_DOUBLE_EQ(got.config[d], expected.config[d]);
    }
  }

  static constexpr uint64_t kSignature = 42;
  static constexpr uint64_t kOther = 43;
  static constexpr int kRecords = 5;
  std::string path_;
};

TEST_F(JournalFuzzTest, TruncationAtEveryOffsetInsideFinalRecord) {
  WriteBareJournal();
  const std::string bytes = ReadFile(path_);
  ASSERT_EQ(bytes.back(), '\n');

  // Every cut strictly inside the final record leaves a torn tail: the four
  // prior records recover intact and the damage is reported as data loss.
  SweepTruncations(path_, [](const JournalChain& chain) {
    ExpectPrefix(chain, kSignature, kRecords - 1);
  });

  // Cutting exactly at the record boundary is a clean shorter journal, and
  // the untouched file recovers everything.
  WriteFile(path_, bytes.substr(0, LastLineStart(bytes)));
  auto boundary = RecoverJournalChain(path_);
  ASSERT_TRUE(boundary.ok());
  EXPECT_TRUE(boundary->tail_status.ok());
  ExpectPrefix(*boundary, kSignature, kRecords - 1);

  WriteFile(path_, bytes);
  auto whole = RecoverJournalChain(path_);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->tail_status.ok());
  ExpectPrefix(*whole, kSignature, kRecords);
}

TEST_F(JournalFuzzTest, BitFlipAtEveryByteOfFinalRecord) {
  WriteBareJournal();
  const std::string bytes = ReadFile(path_);
  // Flipping any single bit of the final line — checksum field, separator,
  // payload, or its newline — must fail the CRC (or tear the line) and
  // recover around it, never past it and never crashing.
  SweepFlips(path_, LastLineStart(bytes), bytes.size(), 0x01,
             [](const JournalChain& chain) {
               ExpectPrefix(chain, kSignature, kRecords - 1);
             });
}

TEST_F(JournalFuzzTest, EmptyTailLineIsDataLoss) {
  // A crash can leave a lone newline or stray whitespace after the last
  // record; recovery keeps the records and flags the garbage.
  WriteBareJournal();
  WriteFile(path_, ReadFile(path_) + "\n");
  auto recovered = RecoverJournalChain(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tail_status.code(), StatusCode::kDataLoss);
  ExpectPrefix(*recovered, kSignature, kRecords);
}

/// A damaged sealed segment keeps its own valid prefix; the segments and
/// live tail after it still replay.
TEST_F(JournalFuzzTest, SegmentTruncationAtEveryOffsetInsideFinalRecord) {
  const std::string segment = WriteSegmentChain();
  SweepTruncations(segment, [](const JournalChain& chain) {
    ExpectPrefix(chain, kSignature, kRecords - 1);
    ExpectPrefix(chain, kOther, kRecords);
  });
}

TEST_F(JournalFuzzTest, SegmentBitFlipAtEveryByteOfFinalRecord) {
  const std::string segment = WriteSegmentChain();
  const std::string bytes = ReadFile(segment);
  SweepFlips(segment, LastLineStart(bytes), bytes.size(), 0x01,
             [](const JournalChain& chain) {
               ExpectPrefix(chain, kSignature, kRecords - 1);
               ExpectPrefix(chain, kOther, kRecords);
             });
}

TEST_F(JournalFuzzTest, RawDeltaTruncationAtEveryOffsetInsideFinalRecord) {
  const std::string delta = WriteDeltaChain();
  SweepTruncations(delta, [](const JournalChain& chain) {
    ExpectPrefix(chain, kOther, kRecords);
    ExpectPrefix(chain, kSignature, kRecords - 1);
  });
}

TEST_F(JournalFuzzTest, RawDeltaBitFlipAtEveryByteOfFinalRecord) {
  const std::string delta = WriteDeltaChain();
  const std::string bytes = ReadFile(delta);
  SweepFlips(delta, LastLineStart(bytes), bytes.size(), 0x01,
             [](const JournalChain& chain) {
               ExpectPrefix(chain, kOther, kRecords);
               ExpectPrefix(chain, kSignature, kRecords - 1);
             });
}

/// A published delta whose header line is damaged is damage, not a stale
/// leftover: the chain breaks there, the image before it replays intact,
/// and the loss is reported against the delta's file.
class DeltaHeaderFuzzTest : public JournalFuzzTest {
 protected:
  void SweepHeader(char mask, const std::function<bool(size_t)>& skip) {
    const std::string delta = WriteDeltaChain();
    const std::string bytes = ReadFile(delta);
    header_ = bytes.substr(0, bytes.find('\n') + 1);
    ASSERT_EQ(header_.rfind("rockhopper-ckpt-delta v1 1 ", 0), 0u) << header_;
    SweepFlips(
        delta, 0, header_.size(), mask,
        [&delta](const JournalChain& chain) {
          EXPECT_NE(chain.tail_status.message().find(delta),
                    std::string::npos)
              << chain.tail_status.ToString();
          ExpectPrefix(chain, kOther, kRecords);
          ExpectSubsequence(chain, kSignature);
        },
        skip);
  }

  /// Whether `pos` is a digit of header field `field` (0-based, space
  /// separated).
  bool InField(size_t pos, int field) const {
    int current = 0;
    for (size_t i = 0; i < pos; ++i) {
      if (header_[i] == ' ') ++current;
    }
    return current == field && header_[pos] != ' ';
  }

  std::string header_;
};

TEST_F(DeltaHeaderFuzzTest, CaseFlipAtEveryByteIsDataLoss) {
  // XOR 0x20 turns digits into control characters, letters into the other
  // case, spaces into NULs and the newline into '*': no flip parses as the
  // header that was written.
  SweepHeader(0x20, nullptr);
}

TEST_F(DeltaHeaderFuzzTest, BitFlipOutsideSequenceDigitsIsDataLoss) {
  // The base-seq (field 3) and last-segment (field 4) digits are left out:
  // a low-bit flip there still parses as a plausible wrong number, which
  // only a checksum over the header line can catch. That CRC belongs to the
  // binary record format (ROADMAP item 5). Every other byte — magic,
  // version, chain index, record count, encoding, separators, newline — is
  // caught by the parser, the index check, or the declared record count.
  SweepHeader(0x01, [this](size_t pos) {
    return InField(pos, 3) || InField(pos, 4);
  });
}

TEST(JournalStickyErrorTest, DevFullSurfacesFirstErrorEverywhere) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  auto opened = ObservationJournal::Open("/dev/full");
  if (!opened.ok()) {
    // The header write already hit ENOSPC — equally valid surfacing.
    EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
    return;
  }
  ObservationJournal journal = std::move(*opened);
  Observation obs;
  obs.config = {1.0, 2.0};
  obs.data_size = 1.0;
  obs.runtime = 5.0;
  Status first;
  for (int i = 0; i < 4 && first.ok(); ++i) {
    obs.iteration = i;
    first = journal.Append(7, obs);
  }
  ASSERT_FALSE(first.ok());
  // Fail-fast stickiness: later appends and the shutdown path all surface
  // the first error instead of pretending the journal is healthy.
  obs.iteration = 99;
  EXPECT_EQ(journal.Append(7, obs).code(), first.code());
  EXPECT_EQ(journal.Sync().code(), first.code());
  EXPECT_EQ(journal.Close().code(), first.code());
}

}  // namespace
}  // namespace rockhopper::core
