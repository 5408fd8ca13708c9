// The `spt-sweep-v1` checkpoint side-file format, shared by the hardened
// sweep and the fault campaign.
//
// One tab-separated line per finished cell:
//
//   spt-sweep-v1 <status> <benchmark> <config> <metric>... <diagnostic>
//
// Append-only, flushed per line, last line per (benchmark, config) wins on
// resume. The metric columns are caller-defined (the sweep stores the 20
// summary metrics writeSweepJson emits; the campaign stores its fault
// classification and digest fields) — the tag, key columns, status
// vocabulary, escaping, and last-line-wins semantics are identical, so
// `sptc sweep --resume` and `sptc inject --resume` share one format and
// one parser.
//
// String fields are backslash-escaped on write (`\\`, `\t`, `\n`, `\r`)
// and unescaped on read: diagnostics routinely carry tabs and newlines
// (multi-line oracle first-divergence text, worker stderr excerpts), and
// the old sanitize-to-spaces scheme silently corrupted them — a resumed
// run then re-keyed such cells differently than the run that wrote them.
// Rows written before escaping existed contain no `\` + t/n/r/backslash
// sequences in practice and parse unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/cell_status.h"

namespace spt::harness {

inline constexpr const char* kCheckpointTag = "spt-sweep-v1";

struct CheckpointLine {
  CellStatus status = CellStatus::kOk;
  std::string benchmark;
  std::string config;
  std::vector<std::uint64_t> metrics;
  std::string diagnostic;
};

/// Lossless escaping of the format's separator bytes: `\` -> `\\`,
/// tab -> `\t`, newline -> `\n`, CR -> `\r`.
std::string escapeCheckpointField(const std::string& s);

/// Inverse of escapeCheckpointField. Unknown escape pairs and a trailing
/// lone backslash pass through verbatim, so pre-escaping rows parse
/// unchanged.
std::string unescapeCheckpointField(const std::string& s);

/// The resume-map key for a cell: escaped benchmark + '\t' + config.
std::string checkpointKey(const std::string& benchmark,
                          const std::string& config);

/// One formatted line (no trailing newline).
std::string formatCheckpointLine(const CheckpointLine& line);

/// Parses one line; requires exactly `expected_metrics` metric columns.
/// Returns false on any malformed line (wrong tag, unknown status, bad
/// metric) — resume skips such lines rather than failing.
bool parseCheckpointLine(const std::string& text,
                         std::size_t expected_metrics, CheckpointLine* out);

/// Loads a checkpoint file into a last-line-wins map keyed by
/// checkpointKey(benchmark, config). A missing file yields an empty map.
///
/// Torn-tail tolerance: the writer appends each record as one line ending
/// in '\n' and flushes it, so a record missing its terminating newline can
/// only be the torn tail of a write killed mid-flush (power loss, SIGKILL
/// between write and newline). Such a trailing fragment is dropped — even
/// when its prefix happens to parse, a truncated metric column would
/// otherwise resume with a silently corrupted value — and reported via
/// `warning` (one human-readable sentence; untouched when the file is
/// clean). Interior malformed lines are skipped as before.
std::map<std::string, CheckpointLine> loadCheckpoint(
    const std::string& path, std::size_t expected_metrics,
    std::string* warning = nullptr);

/// Durable append-only line writer shared by checkpoints and the sweep
/// service's request journal.
///
/// On POSIX this is an `open(O_WRONLY|O_CREAT|O_APPEND)` fd: each
/// appendLine() issues one `write(2)` of `line + '\n'` (O_APPEND makes the
/// seek+write atomic with respect to other appenders), and sync() calls
/// `fsync(2)` so the record survives power loss — the old
/// `std::ofstream` + `flush()` path only pushed bytes into the page cache.
/// sync() is batched: it is a no-op unless an append happened since the
/// last sync, so callers can call it eagerly per record (checkpoints) or
/// once per event-loop pass (journal) without paying for empty fsyncs.
/// File contents are byte-identical to the former ofstream writers.
///
/// On non-POSIX builds it degrades to a buffered stream with flush()
/// (no durability guarantee; the service that needs one is POSIX-only).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile();
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens (creating if needed) for appending; truncates first when
  /// `truncate` is set. Returns false on failure (isOpen() stays false).
  bool open(const std::string& path, bool truncate);
  bool isOpen() const;

  /// Appends `line + '\n'`. Returns false on a short or failed write.
  bool appendLine(const std::string& line);

  /// Test/chaos hook: appends only the first `bytes` bytes of `line` with
  /// NO terminating newline — simulates a write torn by a crash mid-append
  /// (the torn-tail case loadCheckpoint/replayJournal must tolerate). The
  /// truncated bytes are fsync'd immediately so a SIGKILL right after
  /// leaves exactly this fragment on disk.
  bool appendTorn(const std::string& line, std::size_t bytes);

  /// fsync(2) if anything was appended since the last sync.
  bool sync();

  void close();

  /// The fd backing the writer (-1 when closed or non-POSIX). Exposed so a
  /// forking caller can close it in the child.
  int fd() const;

 private:
  int fd_ = -1;
  bool dirty_ = false;
  void* stream_ = nullptr;  // non-POSIX fallback (std::ofstream*)
};

}  // namespace spt::harness
