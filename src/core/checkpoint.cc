#include "core/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/compress.h"
#include "common/logging.h"
#include "core/tracing.h"
#include "sim/buggify.h"

namespace rockhopper::core {

namespace {

constexpr char kCheckpointMagic[] = "rockhopper-checkpoint";
constexpr char kCheckpointVersion[] = "v1";
constexpr char kDeltaMagic[] = "rockhopper-ckpt-delta";
constexpr char kDeltaVersion[] = "v1";
constexpr char kJournalHeader[] = "rockhopper-journal v1";

std::string Describe(size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

/// One parsed record-bearing file: the raw validated lines (absorb path
/// keeps bytes untouched) plus damage accounting for the dropped suffix.
struct RecordFile {
  std::vector<std::string> lines;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
  bool clean = true;
};

/// Scans journal-format record lines in `text` starting at `pos`; the first
/// invalid line ends the valid prefix (the writer is strictly sequential, so
/// a corrupt record means corruption reached at least this offset).
void ScanRecordLines(const std::string& text, size_t pos, RecordFile* file) {
  while (pos < text.size()) {
    const size_t newline = text.find('\n', pos);
    if (newline == std::string::npos) {
      // Truncated tail: the writer died mid-record.
      file->clean = false;
      file->bytes_dropped += text.size() - pos;
      ++file->records_dropped;
      return;
    }
    std::string line = text.substr(pos, newline - pos);
    uint64_t signature = 0;
    Observation obs;
    if (!ParseJournalLine(line, &signature, &obs)) {
      // Bad record: drop this line and everything after it.
      file->clean = false;
      file->bytes_dropped += text.size() - pos;
      for (size_t p = pos; p < text.size();) {
        ++file->records_dropped;
        const size_t nl = text.find('\n', p);
        if (nl == std::string::npos) break;
        p = nl + 1;
      }
      return;
    }
    file->lines.push_back(std::move(line));
    pos = newline + 1;
  }
}

/// A file whose valid lines disagree with its header's record count is
/// damaged even when every line checks: truncation on a line boundary, or a
/// damaged count, looks clean line by line.
void CheckDeclared(size_t declared, RecordFile* file) {
  if (!file->clean || file->lines.size() == declared) return;
  file->clean = false;
  if (declared > file->lines.size()) {
    file->records_dropped += declared - file->lines.size();
  }
}

Result<std::string> ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  // A device such as /dev/zero never ends; only a regular file holds a
  // chain.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The first line of `path`, without reading the rest; false when absent.
bool ReadHeaderLine(const std::string& path, std::string* header) {
  std::ifstream in(path, std::ios::binary);
  return in && std::getline(in, *header);
}

/// `text`'s first line and the offset of what follows it; false when there
/// is no complete first line.
bool SplitHeader(const std::string& text, std::string* header, size_t* body) {
  const size_t newline = text.find('\n');
  if (newline == std::string::npos) return false;
  *header = text.substr(0, newline);
  *body = newline + 1;
  return true;
}

/// "rockhopper-checkpoint v1 <last-segment> <record-count>"
struct CheckpointHeader {
  uint64_t last_segment = 0;
  size_t records = 0;
};

bool ParseCheckpointHeader(const std::string& line, CheckpointHeader* header) {
  char magic[32], version[16];
  return std::sscanf(line.c_str(), "%31s %15s %" SCNu64 " %zu", magic, version,
                     &header->last_segment, &header->records) == 4 &&
         std::strcmp(magic, kCheckpointMagic) == 0 &&
         std::strcmp(version, kCheckpointVersion) == 0;
}

/// "rockhopper-ckpt-delta v1 <k> <base-seq> <last-segment> <records> <enc>"
struct DeltaHeader {
  uint64_t index = 0;
  uint64_t base_seq = 0;
  uint64_t last_segment = 0;
  size_t records = 0;
  bool compressed = false;
};

bool ParseDeltaHeader(const std::string& line, DeltaHeader* header) {
  char magic[32], version[16], encoding[16];
  if (std::sscanf(line.c_str(),
                  "%31s %15s %" SCNu64 " %" SCNu64 " %" SCNu64 " %zu %15s",
                  magic, version, &header->index, &header->base_seq,
                  &header->last_segment, &header->records, encoding) != 7 ||
      std::strcmp(magic, kDeltaMagic) != 0 ||
      std::strcmp(version, kDeltaVersion) != 0) {
    return false;
  }
  header->compressed = std::strcmp(encoding, "lz") == 0;
  return header->compressed || std::strcmp(encoding, "raw") == 0;
}

/// Reads a live journal or sealed segment; the first bad line ends the
/// valid prefix. kInvalidArgument for a foreign or missing header.
Result<RecordFile> ReadJournalFile(const std::string& path) {
  ROCKHOPPER_ASSIGN_OR_RETURN(text, ReadWhole(path));
  std::string header;
  size_t body = 0;
  if (!SplitHeader(text, &header, &body) || header != kJournalHeader) {
    return Status::InvalidArgument("not a rockhopper journal: " + path);
  }
  RecordFile file;
  ScanRecordLines(text, body, &file);
  return file;
}

/// Reads the full image, validating every line and the declared count.
Result<RecordFile> ReadCheckpointFile(const std::string& path,
                                      CheckpointHeader* header) {
  ROCKHOPPER_ASSIGN_OR_RETURN(text, ReadWhole(path));
  std::string line;
  size_t body = 0;
  if (!SplitHeader(text, &line, &body) ||
      !ParseCheckpointHeader(line, header)) {
    return Status::InvalidArgument("not a rockhopper checkpoint: " + path);
  }
  RecordFile file;
  ScanRecordLines(text, body, &file);
  CheckDeclared(header->records, &file);
  return file;
}

/// Reads chain link `k`. Damage never fails the call: a header that does
/// not parse or names another index keeps nothing, a torn raw body keeps
/// its valid line prefix, an undecodable compressed body keeps nothing —
/// all reported through the dropped counters so the chain replay stops at
/// the first unhealthy link.
Result<RecordFile> ReadDeltaFile(const std::string& path, uint64_t k,
                                 DeltaHeader* header) {
  ROCKHOPPER_ASSIGN_OR_RETURN(text, ReadWhole(path));
  RecordFile file;
  std::string line;
  size_t body = 0;
  if (!SplitHeader(text, &line, &body) || !ParseDeltaHeader(line, header) ||
      header->index != k) {
    *header = DeltaHeader();
    file.clean = false;
    file.bytes_dropped = text.size();
    return file;
  }
  if (!header->compressed) {
    ScanRecordLines(text, body, &file);
  } else {
    Result<std::string> raw = common::DecodeCompressed(
        std::string_view(text.data() + body, text.size() - body));
    if (!raw.ok()) {
      // The whole body is one envelope: damage loses every record in it.
      file.clean = false;
      file.records_dropped = header->records;
      file.bytes_dropped = text.size() - body;
      return file;
    }
    ScanRecordLines(*raw, 0, &file);
  }
  CheckDeclared(header->records, &file);
  return file;
}

Status ReplayLines(const std::vector<std::string>& lines,
                   ObservationStore* store) {
  for (const std::string& line : lines) {
    uint64_t signature = 0;
    Observation obs;
    if (!ParseJournalLine(line, &signature, &obs)) {
      return Status::Internal("validated journal line failed to reparse");
    }
    store->Append(signature, std::move(obs));
  }
  return Status::OK();
}

}  // namespace

std::string CheckpointPath(const std::string& journal_path) {
  return journal_path + ".checkpoint";
}

std::string CheckpointDeltaPath(const std::string& journal_path, uint64_t k) {
  return CheckpointPath(journal_path) + ".delta-" + std::to_string(k);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpointDeltas(
    const std::string& journal_path) {
  namespace fs = std::filesystem;
  std::vector<std::pair<uint64_t, std::string>> deltas;
  const fs::path checkpoint(CheckpointPath(journal_path));
  const fs::path dir =
      checkpoint.has_parent_path() ? checkpoint.parent_path() : fs::path(".");
  const std::string prefix = checkpoint.filename().string() + ".delta-";
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot list checkpoint deltas in " + dir.string() +
                           ": " + ec.message());
  }
  for (const fs::directory_iterator end_it; it != end_it; it.increment(ec)) {
    if (ec) {
      return Status::IOError("error scanning checkpoint deltas in " +
                             dir.string() + ": " + ec.message());
    }
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string index_text = name.substr(prefix.size());
    char* end = nullptr;
    const unsigned long long index =
        std::strtoull(index_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || index_text.empty()) continue;
    deltas.emplace_back(static_cast<uint64_t>(index), it->path().string());
  }
  std::sort(deltas.begin(), deltas.end());
  return deltas;
}

namespace {

/// The on-disk chain as header-only metadata: the full image's sequence,
/// the chain's links (contiguous indexes from 1, matching base-seq,
/// strictly increasing coverage), and everything else as stale files.
struct ChainInfo {
  bool have_base = false;
  uint64_t base_seq = 0;
  /// base_seq, or the last readable link's last-segment.
  uint64_t chain_seq = 0;
  std::vector<std::pair<uint64_t, std::string>> links;
  std::vector<std::string> stale;
  /// The first link whose header is damaged (empty when none): the chain
  /// breaks there, so nothing may be stacked past it.
  std::string damaged_link;
  /// Cumulative file size of the links (the compaction trigger).
  size_t link_bytes = 0;
};

Result<ChainInfo> DiscoverChain(const std::string& journal_path) {
  ChainInfo info;
  const std::string checkpoint_path = CheckpointPath(journal_path);
  std::error_code ec;
  info.have_base = std::filesystem::exists(checkpoint_path, ec);
  std::string line;
  CheckpointHeader base;
  if (ReadHeaderLine(checkpoint_path, &line) &&
      ParseCheckpointHeader(line, &base)) {
    info.base_seq = base.last_segment;
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(deltas, ListCheckpointDeltas(journal_path));
  uint64_t prev_seq = info.base_seq;
  bool chain_open = info.have_base;
  for (const auto& [index, path] : deltas) {
    DeltaHeader header;
    const bool parsed =
        ReadHeaderLine(path, &line) && ParseDeltaHeader(line, &header);
    const bool next_link = chain_open && index == info.links.size() + 1;
    // A published link whose header does not parse, or names another
    // index, is damage rather than a leftover: it keeps its place, so the
    // chain breaks there (recovery reports the loss). Only a header that
    // parses and names another base image is stale.
    const bool damaged = !parsed || header.index != index;
    if (next_link &&
        (damaged || (header.base_seq == info.base_seq &&
                     header.last_segment > prev_seq))) {
      info.links.emplace_back(index, path);
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec) info.link_bytes += static_cast<size_t>(size);
      if (!damaged) {
        prev_seq = header.last_segment;
      } else if (info.damaged_link.empty()) {
        info.damaged_link = path;
      }
    } else {
      // Left over from an older chain generation, or past a break in this
      // one — never replayed, deleted by the next writer.
      chain_open = false;
      info.stale.push_back(path);
    }
  }
  info.chain_seq = prev_seq;
  return info;
}

/// Full-read absorption of the delta chain, applying the shared damage
/// rules: the healthy prefix is absorbed whole; the first unhealthy link
/// contributes its valid line prefix (advancing coverage only when it
/// contributed lines, so surviving segments are never double-absorbed);
/// everything after the break is dropped.
struct ChainAbsorption {
  /// The chain's records, with the damage that cut it short.
  RecordFile records;
  uint64_t chain_seq = 0;
  size_t deltas_used = 0;
  /// The first unhealthy link.
  std::string first_damage;
};

Result<ChainAbsorption> AbsorbDeltaChain(const ChainInfo& chain) {
  ChainAbsorption out;
  RecordFile& records = out.records;
  out.chain_seq = chain.base_seq;
  for (const auto& [index, path] : chain.links) {
    DeltaHeader header;
    ROCKHOPPER_ASSIGN_OR_RETURN(delta, ReadDeltaFile(path, index, &header));
    if (!records.clean) {
      records.records_dropped += header.records;
      continue;
    }
    if (!delta.lines.empty() || delta.clean) {
      records.lines.insert(records.lines.end(),
                           std::make_move_iterator(delta.lines.begin()),
                           std::make_move_iterator(delta.lines.end()));
      out.chain_seq = header.last_segment;
      ++out.deltas_used;
    }
    if (!delta.clean) {
      records.clean = false;
      records.records_dropped += delta.records_dropped;
      records.bytes_dropped += delta.bytes_dropped;
      out.first_damage = path;
    }
  }
  return out;
}

/// Segments of `journal_path` split at chain sequence `seq`: those above it
/// are fresh; those at or below it were absorbed by a compaction (full or
/// delta) that crashed before removing them, so they are deleted without
/// re-absorbing.
struct SegmentSplit {
  std::vector<std::pair<uint64_t, std::string>> fresh;
  std::vector<std::string> stale;
};

Result<SegmentSplit> SplitSegments(const std::string& journal_path,
                                   uint64_t seq) {
  ROCKHOPPER_ASSIGN_OR_RETURN(segments,
                              ObservationJournal::ListSegments(journal_path));
  SegmentSplit split;
  for (auto& [index, path] : segments) {
    if (index > seq) {
      split.fresh.emplace_back(index, std::move(path));
    } else {
      split.stale.push_back(std::move(path));
    }
  }
  return split;
}

/// Appends the valid lines of every fresh segment to `lines`. A torn
/// segment tail is a record that was never acked (the sticky journal error
/// rejected everything after it); dropping it loses nothing the service
/// promised to keep. Returns the highest absorbed segment index.
Result<uint64_t> AbsorbSegments(const SegmentSplit& split, uint64_t seq,
                                std::vector<std::string>* lines,
                                CheckpointReport* report) {
  for (const auto& [index, path] : split.fresh) {
    ROCKHOPPER_ASSIGN_OR_RETURN(segment, ReadJournalFile(path));
    lines->insert(lines->end(), std::make_move_iterator(segment.lines.begin()),
                  std::make_move_iterator(segment.lines.end()));
    report->records_dropped += segment.records_dropped;
    seq = index;
  }
  report->segments_absorbed = split.fresh.size();
  return seq;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string body;
  for (const std::string& line : lines) {
    body += line;
    body += '\n';
  }
  return body;
}

/// Publishes `header` + `body` at `path` atomically: written to a .tmp,
/// then renamed. `crash` (an injected fault) tears the write halfway and
/// never renames — the previous chain and segments stay intact, and
/// recovery is oblivious to the .tmp. Returns the bytes written.
Result<size_t> Publish(const std::string& path, const std::string& header,
                       const std::string& body, bool crash) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open checkpoint tmp: " + tmp_path);
  }
  const bool header_ok =
      std::fwrite(header.data(), 1, header.size(), out) == header.size();
  if (crash) {
    std::fwrite(body.data(), 1, body.size() / 2, out);
    std::fflush(out);
    std::fclose(out);
    return Status::IOError("injected checkpoint crash mid-write: " + tmp_path);
  }
  if (!header_ok ||
      std::fwrite(body.data(), 1, body.size(), out) != body.size()) {
    std::fclose(out);
    return Status::IOError("checkpoint write failed: " + tmp_path);
  }
  if (std::fflush(out) != 0 || std::fclose(out) != 0) {
    return Status::IOError("checkpoint flush failed: " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::IOError("checkpoint publish failed: " + path + ": " +
                           ec.message());
  }
  return header.size() + body.size();
}

/// Truncation: removes files a published compaction made redundant. Pure
/// space reclamation — recovery skips every one of them — so a crash
/// anywhere in here is harmless, and the next writer finishes the job.
void RemoveRedundant(const std::vector<std::string>& paths) {
  if (ROCKHOPPER_BUGGIFY("checkpoint.truncate.crash")) return;
  std::error_code ec;
  for (const std::string& path : paths) std::filesystem::remove(path, ec);
}

/// Full compaction: absorbs image + chain + fresh segments into one new
/// image, collapsing the chain back to a lone full image.
Result<CheckpointReport> WriteCheckpoint(const std::string& journal_path,
                                         const ChainInfo& chain) {
  ScopedSpan span(ServiceMetrics::Get().checkpoint_seconds);
  CheckpointReport report;
  report.checkpoint_path = CheckpointPath(journal_path);

  std::vector<std::string> lines;
  CheckpointHeader base;
  Result<RecordFile> image = ReadCheckpointFile(report.checkpoint_path, &base);
  if (image.ok()) {
    lines = std::move(image->lines);
    report.records_dropped += image->records_dropped;
  } else if (image.status().code() != StatusCode::kNotFound) {
    return image.status();
  }
  // The chain's records are part of the image being rewritten, and its
  // readable coverage decides which segments are fresh.
  ROCKHOPPER_ASSIGN_OR_RETURN(chained, AbsorbDeltaChain(chain));
  report.records_dropped += chained.records.records_dropped;
  report.deltas_absorbed = chained.deltas_used;
  lines.insert(lines.end(),
               std::make_move_iterator(chained.records.lines.begin()),
               std::make_move_iterator(chained.records.lines.end()));
  ROCKHOPPER_ASSIGN_OR_RETURN(split,
                              SplitSegments(journal_path, chained.chain_seq));
  ROCKHOPPER_ASSIGN_OR_RETURN(
      last_segment, AbsorbSegments(split, chained.chain_seq, &lines, &report));

  char header[96];
  std::snprintf(header, sizeof(header), "%s %s %" PRIu64 " %zu\n",
                kCheckpointMagic, kCheckpointVersion, last_segment,
                lines.size());
  ROCKHOPPER_ASSIGN_OR_RETURN(
      bytes, Publish(report.checkpoint_path, header, JoinLines(lines),
                     ROCKHOPPER_BUGGIFY("checkpoint.write.crash")));
  report.last_segment = last_segment;
  report.records = lines.size();
  report.bytes_written = bytes;

  // Absorbed segments and the collapsed chain are redundant now: recovery
  // skips segment indexes <= last_segment, and the deltas' base-seq no
  // longer matches the new image.
  std::vector<std::string> redundant = std::move(split.stale);
  for (const auto& [index, path] : split.fresh) redundant.push_back(path);
  for (const auto& [index, path] : chain.links) redundant.push_back(path);
  redundant.insert(redundant.end(), chain.stale.begin(), chain.stale.end());
  RemoveRedundant(redundant);
  ServiceMetrics::Get().checkpoints_total->Increment();
  ServiceMetrics::Get().checkpoint_bytes->Observe(static_cast<double>(bytes));
  return report;
}

/// Incremental compaction: absorbs the fresh segments into a new link
/// stacked on the chain.
Result<CheckpointReport> WriteCheckpointDelta(const std::string& journal_path,
                                              const ChainInfo& chain,
                                              bool compress) {
  ScopedSpan span(ServiceMetrics::Get().checkpoint_seconds);
  CheckpointReport report;
  report.checkpoint_path = CheckpointPath(journal_path);

  ROCKHOPPER_ASSIGN_OR_RETURN(split,
                              SplitSegments(journal_path, chain.chain_seq));
  std::vector<std::string> lines;
  ROCKHOPPER_ASSIGN_OR_RETURN(
      last_segment, AbsorbSegments(split, chain.chain_seq, &lines, &report));
  std::string body = JoinLines(lines);
  if (compress) {
    ServiceMetrics& metrics = ServiceMetrics::Get();
    ScopedSpan compress_span(metrics.compress_seconds);
    std::string envelope = common::EncodeCompressed(body);
    metrics.compress_encodes->Increment();
    metrics.compress_ratio->Observe(
        body.empty() ? 1.0
                     : static_cast<double>(envelope.size()) /
                           static_cast<double>(body.size()));
    body = std::move(envelope);
  }

  const uint64_t delta_index = chain.links.size() + 1;
  const std::string delta_path = CheckpointDeltaPath(journal_path, delta_index);
  char header[160];
  std::snprintf(header, sizeof(header),
                "%s %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %zu %s\n",
                kDeltaMagic, kDeltaVersion, delta_index, chain.base_seq,
                last_segment, lines.size(), compress ? "lz" : "raw");
  ROCKHOPPER_ASSIGN_OR_RETURN(
      bytes, Publish(delta_path, header, body,
                     ROCKHOPPER_BUGGIFY("checkpoint.delta.crash")));
  report.delta_index = delta_index;
  report.last_segment = last_segment;
  report.records = lines.size();
  report.bytes_written = bytes;

  // The rename replaced any stale leftover at the new link's index, so
  // that path is live again and must survive the truncation.
  std::vector<std::string> redundant = std::move(split.stale);
  for (const auto& [index, path] : split.fresh) redundant.push_back(path);
  for (const std::string& path : chain.stale) {
    if (path != delta_path) redundant.push_back(path);
  }
  RemoveRedundant(redundant);
  ServiceMetrics::Get().checkpoint_deltas_total->Increment();
  ServiceMetrics::Get().checkpoint_bytes->Observe(static_cast<double>(bytes));
  return report;
}

}  // namespace

Result<CheckpointReport> CheckpointLive(ObservationJournal* journal,
                                        const DeltaCheckpointPolicy& policy) {
  if (journal == nullptr || !journal->is_open()) {
    return Status::FailedPrecondition("journal is not open");
  }
  // The sequence barrier: drain group commit and seal the live file, so the
  // compactor absorbs every record acked before this call without ever
  // touching the file writers are appending to. The rotation index floor
  // keeps numbering monotonic past segments earlier compactions (full or
  // delta) absorbed and deleted (see Rotate's doc).
  ROCKHOPPER_ASSIGN_OR_RETURN(chain, DiscoverChain(journal->path()));
  ROCKHOPPER_RETURN_IF_ERROR(journal->Rotate(chain.chain_seq + 1).status());
  bool full = !chain.have_base || chain.links.size() >= policy.max_chain;
  if (!chain.damaged_link.empty()) {
    // Recovery drops every link from the break on, so a delta stacked past
    // it would lose its records too: collapse the chain instead. The full
    // image keeps the readable prefix and the fresh segments.
    ROCKHOPPER_LOG(kWarning) << "checkpoint delta " << chain.damaged_link
                             << " is damaged; compacting to a full image, "
                                "which drops it";
    full = true;
  }
  if (!full && policy.max_bytes_fraction > 0.0) {
    std::error_code ec;
    const auto base_bytes =
        std::filesystem::file_size(CheckpointPath(journal->path()), ec);
    full = !ec && static_cast<double>(chain.link_bytes) >=
                      policy.max_bytes_fraction *
                          static_cast<double>(base_bytes);
  }
  return full ? WriteCheckpoint(journal->path(), chain)
              : WriteCheckpointDelta(journal->path(), chain, policy.compress);
}

Result<JournalChain> RecoverJournalChain(const std::string& journal_path) {
  JournalChain chain;
  bool found_any = false;

  auto absorb_damage = [&chain](const RecordFile& file,
                                const std::string& path) {
    if (file.clean) return;
    chain.clean = false;
    chain.records_dropped += file.records_dropped;
    chain.bytes_dropped += file.bytes_dropped;
    if (chain.tail_status.ok()) {
      chain.tail_status = Status::DataLoss(
          "dropped " + Describe(file.records_dropped, "records") + " (" +
          Describe(file.bytes_dropped, "bytes") + ") from " + path);
    }
  };

  const std::string checkpoint_path = CheckpointPath(journal_path);
  {
    CheckpointHeader header;
    Result<RecordFile> read = ReadCheckpointFile(checkpoint_path, &header);
    if (read.ok()) {
      found_any = true;
      chain.checkpoint_seq = header.last_segment;
      chain.checkpoint_records = read->lines.size();
      absorb_damage(*read, checkpoint_path);
      ROCKHOPPER_RETURN_IF_ERROR(ReplayLines(read->lines, &chain.store));
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  // The delta chain stacked on the full image: replay its valid prefix,
  // applying the same damage rules the full compactor uses (so a compaction
  // and a recovery over the same files agree byte-for-byte).
  {
    ROCKHOPPER_ASSIGN_OR_RETURN(disk_chain, DiscoverChain(journal_path));
    ROCKHOPPER_ASSIGN_OR_RETURN(chained, AbsorbDeltaChain(disk_chain));
    if (!disk_chain.links.empty()) found_any = true;
    chain.checkpoint_seq = chained.chain_seq;
    chain.checkpoint_records += chained.records.lines.size();
    chain.deltas_replayed = chained.deltas_used;
    absorb_damage(chained.records, "delta chain at " + chained.first_damage);
    ROCKHOPPER_RETURN_IF_ERROR(
        ReplayLines(chained.records.lines, &chain.store));
  }

  ROCKHOPPER_ASSIGN_OR_RETURN(segments,
                              ObservationJournal::ListSegments(journal_path));
  for (const auto& [index, path] : segments) {
    if (index <= chain.checkpoint_seq) continue;  // already in the checkpoint
    ROCKHOPPER_ASSIGN_OR_RETURN(segment, ReadJournalFile(path));
    found_any = true;
    ++chain.segments_replayed;
    chain.tail_records += segment.lines.size();
    absorb_damage(segment, path);
    ROCKHOPPER_RETURN_IF_ERROR(ReplayLines(segment.lines, &chain.store));
  }

  {
    Result<RecordFile> read = ReadJournalFile(journal_path);
    if (read.ok()) {
      found_any = true;
      chain.live_clean = read->clean;
      chain.tail_records += read->lines.size();
      absorb_damage(*read, journal_path);
      ROCKHOPPER_RETURN_IF_ERROR(ReplayLines(read->lines, &chain.store));
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  if (!found_any) {
    return Status::NotFound("no checkpoint, segments or journal at " +
                            journal_path);
  }
  return chain;
}

}  // namespace rockhopper::core
