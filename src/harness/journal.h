// The `spt-journal-v1` write-ahead request journal for the sweep service.
//
// The spt-sweep-v1 checkpoint preserves *cell* results across a crash, but
// nothing recorded *which requests* were in flight: a killed service lost
// every accepted-but-unfinished grid, clients hung, and resubmission risked
// duplicate work. The journal closes that gap. The service appends one
// durable record at request admission (before any cell is dispatched or
// any reply sent — classic WAL discipline) and one at settlement — when
// the results are delivered to a client, cancelled, or past their
// deadline, not merely computed, so a crash between the last cell and the
// reply flush keeps the request recoverable; on restart the service
// replays the file and re-admits every unsettled request in the original
// admission order.
//
// One tab-separated line per record, each ending in a FNV-1a checksum of
// everything before the checksum column:
//
//   spt-journal-v1 <tab> admit <tab> <id> <tab> <token> <tab> <checkpoint>
//                  <tab> <hex(request-bytes)> <tab> <checksum>
//   spt-journal-v1 <tab> settle <tab> <id> <tab> <outcome> <tab> <checksum>
//
// - `id` is a service-assigned decimal request id, unique for the life of
//   the journal file (the replayer hands back max+1 as the next id).
// - `token` is the client-supplied idempotency token, backslash-escaped
//   with the checkpoint escaping (it is client-controlled text).
// - `checkpoint` is the escaped path of the checkpoint file the request is
//   bound to ("" when the service runs without one).
// - `hex(request-bytes)` is the lowercase-hex encoding of the tokenless
//   `encodeServiceRequest` payload — the full grid description (machine,
//   copts, benchmarks, seeds, spec-threads, deadline, chaos). Replaying a
//   journal therefore needs no side channel: the admit record alone
//   reconstructs the request.
// - `outcome` is one of `done`, `cancelled`, `deadline`.
// - `checksum` is 16 lowercase hex digits of FNV-1a over the preceding
//   bytes of the line (tag through the tab before the checksum).
//
// Torn-tail tolerance matches the checkpoint loader: the writer appends
// `line + '\n'` through the shared DurableAppendFile (O_APPEND + fsync),
// so a record missing its terminating newline can only be a write torn by
// a crash and is dropped. Interior lines that fail the checksum or don't
// parse are skipped and reported with their byte offset — a journal is
// evidence; corruption must be loud, not fatal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spt::harness {

inline constexpr const char* kJournalTag = "spt-journal-v1";

struct JournalRecord {
  enum class Kind { kAdmit, kSettle };

  Kind kind = Kind::kAdmit;
  std::uint64_t id = 0;
  // kAdmit only.
  std::string token;
  std::string checkpoint_path;
  std::string request_bytes;  // raw SPTS request payload (decoded from hex)
  // kSettle only: "done", "cancelled", or "deadline".
  std::string outcome;
};

/// One formatted journal line including the trailing checksum column (no
/// terminating newline).
std::string formatJournalRecord(const JournalRecord& record);

/// Parses one line (without its newline). Returns false — with a
/// human-readable reason in `error` when non-null — on a wrong tag,
/// unknown record kind, bad field, or checksum mismatch.
bool parseJournalLine(const std::string& line, JournalRecord* out,
                      std::string* error = nullptr);

struct JournalReplay {
  /// Admit records with no matching settle, in original admission order.
  std::vector<JournalRecord> unsettled;
  /// One larger than the largest id seen (1 for an empty journal), so the
  /// service can keep assigning unique ids.
  std::uint64_t next_id = 1;
  std::uint64_t records_replayed = 0;  // valid records (admit + settle)
  std::uint64_t records_skipped = 0;   // malformed / checksum-failed lines
  std::uint64_t requests_settled = 0;  // admits matched by a settle
  bool torn_tail = false;
  /// Byte offset of the end of the last '\n'-terminated record (== file
  /// size when the tail is clean). A restarting writer MUST truncate the
  /// file here before appending: O_APPEND would otherwise glue the next
  /// record onto the torn fragment's line, and that merged line fails its
  /// checksum on every later replay — a durable admit record would be lost
  /// to an earlier crash's debris.
  std::uint64_t valid_bytes = 0;
  /// One sentence per anomaly (skipped line with byte offset, torn tail,
  /// settle without a matching admit).
  std::vector<std::string> warnings;
};

/// Replays a journal file. A missing file yields an empty replay (not an
/// error): a service starting with a fresh `--journal` path has simply
/// never crashed.
JournalReplay replayJournal(const std::string& path);

}  // namespace spt::harness
