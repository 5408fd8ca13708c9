#include "harness/journal.h"

#include <fstream>
#include <map>
#include <sstream>

#include "harness/checkpoint.h"
#include "support/fnv.h"

namespace spt::harness {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string toHex(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool fromHex(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hexNibble(hex[i]);
    const int lo = hexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

std::string checksumHex(const std::string& body) {
  const std::uint64_t h =
      support::fnv1a(support::kFnvOffset, body.data(), body.size());
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kHexDigits[(h >> (4 * i)) & 0xf];
  }
  return out;
}

bool parseU64(const std::string& field, std::uint64_t* out) {
  if (field.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

std::string formatJournalRecord(const JournalRecord& record) {
  std::ostringstream os;
  os << kJournalTag << '\t'
     << (record.kind == JournalRecord::Kind::kAdmit ? "admit" : "settle")
     << '\t' << record.id;
  if (record.kind == JournalRecord::Kind::kAdmit) {
    os << '\t' << escapeCheckpointField(record.token) << '\t'
       << escapeCheckpointField(record.checkpoint_path) << '\t'
       << toHex(record.request_bytes);
  } else {
    os << '\t' << record.outcome;
  }
  const std::string body = os.str();
  return body + '\t' + checksumHex(body);
}

bool parseJournalLine(const std::string& line, JournalRecord* out,
                      std::string* error) {
  const std::size_t tab = line.rfind('\t');
  if (tab == std::string::npos) return fail(error, "no checksum column");
  const std::string body = line.substr(0, tab);
  const std::string checksum = line.substr(tab + 1);
  if (checksum != checksumHex(body)) {
    return fail(error, "checksum mismatch (expected " + checksumHex(body) +
                           ", found " + checksum + ")");
  }
  std::istringstream is(body);
  std::string field;
  const auto next = [&](std::string& dst) {
    return static_cast<bool>(std::getline(is, dst, '\t'));
  };
  if (!next(field)) return fail(error, "empty record");
  if (field != kJournalTag) {
    return fail(error, "unknown journal version tag '" + field + "'");
  }
  if (!next(field)) return fail(error, "missing record kind");
  if (field == "admit") {
    out->kind = JournalRecord::Kind::kAdmit;
  } else if (field == "settle") {
    out->kind = JournalRecord::Kind::kSettle;
  } else {
    return fail(error, "unknown record kind '" + field + "'");
  }
  if (!next(field) || !parseU64(field, &out->id)) {
    return fail(error, "bad request id");
  }
  if (out->kind == JournalRecord::Kind::kAdmit) {
    if (!next(field)) return fail(error, "missing token");
    out->token = unescapeCheckpointField(field);
    if (!next(field)) return fail(error, "missing checkpoint binding");
    out->checkpoint_path = unescapeCheckpointField(field);
    if (!next(field) || !fromHex(field, &out->request_bytes)) {
      return fail(error, "bad request-bytes hex");
    }
    out->outcome.clear();
  } else {
    if (!next(field) ||
        (field != "done" && field != "cancelled" && field != "deadline")) {
      return fail(error, "bad settle outcome");
    }
    out->outcome = field;
    out->token.clear();
    out->checkpoint_path.clear();
    out->request_bytes.clear();
  }
  if (next(field)) return fail(error, "trailing fields after record");
  return true;
}

JournalReplay replayJournal(const std::string& path) {
  JournalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) return replay;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  // Same torn-tail rule as loadCheckpoint: only '\n'-terminated records
  // are trusted. A truncated hex column can still decode to a (shorter)
  // valid request, so the fragment is dropped even when it would parse.
  std::size_t complete = text.size();
  while (complete > 0 && text[complete - 1] != '\n') --complete;
  replay.valid_bytes = complete;
  if (complete != text.size()) {
    replay.torn_tail = true;
    replay.warnings.push_back(
        "journal " + path + ": dropped torn trailing record at byte offset " +
        std::to_string(complete) + " (" +
        std::to_string(text.size() - complete) +
        " bytes without a terminating newline)");
  }
  // Admission order is file order; a settle erases its admit.
  std::vector<JournalRecord> admits;
  std::map<std::uint64_t, std::size_t> admit_index;  // id -> slot in admits
  std::size_t pos = 0;
  while (pos < complete) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol >= complete) eol = complete;
    const std::size_t offset = pos;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    JournalRecord record;
    std::string why;
    if (!parseJournalLine(line, &record, &why)) {
      ++replay.records_skipped;
      replay.warnings.push_back("journal " + path + ": skipped record at " +
                                "byte offset " + std::to_string(offset) +
                                ": " + why);
      continue;
    }
    ++replay.records_replayed;
    if (record.id >= replay.next_id) replay.next_id = record.id + 1;
    if (record.kind == JournalRecord::Kind::kAdmit) {
      // Last admit wins for a duplicated id (should not happen; tolerate).
      const auto it = admit_index.find(record.id);
      if (it != admit_index.end()) {
        admits[it->second] = std::move(record);
      } else {
        admit_index[record.id] = admits.size();
        admits.push_back(std::move(record));
      }
    } else {
      const auto it = admit_index.find(record.id);
      if (it == admit_index.end()) {
        replay.warnings.push_back(
            "journal " + path + ": settle for unknown request id " +
            std::to_string(record.id) + " at byte offset " +
            std::to_string(offset));
        continue;
      }
      // Mark settled: clear the slot; order of survivors is preserved.
      admits[it->second].request_bytes.clear();
      admits[it->second].token.clear();
      admits[it->second].id = 0;
      admits[it->second].outcome = "settled";
      admit_index.erase(it);
      ++replay.requests_settled;
    }
  }
  for (auto& admit : admits) {
    if (admit.outcome == "settled") continue;
    replay.unsettled.push_back(std::move(admit));
  }
  return replay;
}

}  // namespace spt::harness
