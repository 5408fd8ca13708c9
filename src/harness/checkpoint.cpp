#include "harness/checkpoint.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_CHECKPOINT_POSIX 1
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#else
#define SPT_CHECKPOINT_POSIX 0
#endif

namespace spt::harness {

std::string escapeCheckpointField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string unescapeCheckpointField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out.push_back(s[i]);
      continue;
    }
    switch (s[++i]) {
      case '\\':
        out.push_back('\\');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      default:
        // Unknown escape: keep both bytes (also how pre-escaping rows,
        // which never contain backslash-letter pairs we emit, stay
        // readable).
        out.push_back('\\');
        out.push_back(s[i]);
    }
  }
  return out;
}

std::string checkpointKey(const std::string& benchmark,
                          const std::string& config) {
  return escapeCheckpointField(benchmark) + '\t' +
         escapeCheckpointField(config);
}

std::string formatCheckpointLine(const CheckpointLine& line) {
  std::ostringstream os;
  os << kCheckpointTag << '\t' << toString(line.status) << '\t'
     << escapeCheckpointField(line.benchmark) << '\t'
     << escapeCheckpointField(line.config);
  for (const std::uint64_t m : line.metrics) os << '\t' << m;
  os << '\t' << escapeCheckpointField(line.diagnostic);
  return os.str();
}

bool parseCheckpointLine(const std::string& text,
                         std::size_t expected_metrics, CheckpointLine* out) {
  std::istringstream is(text);
  std::string field;
  const auto next = [&](std::string& dst) {
    return static_cast<bool>(std::getline(is, dst, '\t'));
  };
  if (!next(field) || field != kCheckpointTag) return false;
  if (!next(field) || !cellStatusFromString(field, out->status)) return false;
  if (!next(field)) return false;
  out->benchmark = unescapeCheckpointField(field);
  if (!next(field)) return false;
  out->config = unescapeCheckpointField(field);
  out->metrics.assign(expected_metrics, 0);
  for (std::uint64_t& m : out->metrics) {
    if (!next(field)) return false;
    try {
      m = std::stoull(field);
    } catch (...) {
      return false;
    }
  }
  // The diagnostic is the (possibly empty) final field. Escaping
  // guarantees a real diagnostic contains no raw tab, so a remainder with
  // more columns is a line written with a different metric count — a
  // campaign line read under the sweep's expectation, or vice versa, now
  // that the sweep service appends both shapes to one file. Reject it
  // rather than gluing foreign metric columns into the diagnostic.
  std::getline(is, field);
  if (field.find('\t') != std::string::npos) return false;
  out->diagnostic = unescapeCheckpointField(field);
  return true;
}

std::map<std::string, CheckpointLine> loadCheckpoint(
    const std::string& path, std::size_t expected_metrics,
    std::string* warning) {
  std::map<std::string, CheckpointLine> map;
  std::ifstream in(path, std::ios::binary);
  if (!in) return map;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  // Only '\n'-terminated records are trusted: the writer emits
  // line + '\n' in one flush, so an unterminated tail is a torn write.
  // A torn metric column can still parse as a (smaller) valid integer,
  // so the fragment must be dropped even when parseCheckpointLine would
  // accept it.
  std::size_t complete = text.size();
  while (complete > 0 && text[complete - 1] != '\n') --complete;
  if (complete != text.size() && warning != nullptr) {
    *warning = "checkpoint " + path + ": dropped torn trailing record (" +
               std::to_string(text.size() - complete) +
               " bytes without a terminating newline); the cell will be "
               "re-run";
  }
  std::size_t pos = 0;
  while (pos < complete) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos || eol >= complete) eol = complete;
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    CheckpointLine parsed;
    if (parseCheckpointLine(line, expected_metrics, &parsed)) {
      map[checkpointKey(parsed.benchmark, parsed.config)] = std::move(parsed);
    }
  }
  return map;
}

#if SPT_CHECKPOINT_POSIX

namespace {

bool writeAllDurable(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

DurableAppendFile::~DurableAppendFile() { close(); }

bool DurableAppendFile::open(const std::string& path, bool truncate) {
  close();
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  fd_ = fd;
  dirty_ = false;
  return true;
}

bool DurableAppendFile::isOpen() const { return fd_ >= 0; }

bool DurableAppendFile::appendLine(const std::string& line) {
  if (fd_ < 0) return false;
  std::string record = line;
  record.push_back('\n');
  if (!writeAllDurable(fd_, record.data(), record.size())) return false;
  dirty_ = true;
  return true;
}

bool DurableAppendFile::appendTorn(const std::string& line,
                                   std::size_t bytes) {
  if (fd_ < 0) return false;
  const std::size_t n = std::min(bytes, line.size());
  if (!writeAllDurable(fd_, line.data(), n)) return false;
  dirty_ = true;
  return sync();
}

bool DurableAppendFile::sync() {
  if (fd_ < 0 || !dirty_) return fd_ >= 0;
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return false;
  dirty_ = false;
  return true;
}

void DurableAppendFile::close() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
    fd_ = -1;
  }
  dirty_ = false;
}

int DurableAppendFile::fd() const { return fd_; }

#else  // !SPT_CHECKPOINT_POSIX

DurableAppendFile::~DurableAppendFile() { close(); }

bool DurableAppendFile::open(const std::string& path, bool truncate) {
  close();
  auto* out = new std::ofstream(
      path, std::ios::binary | std::ios::out |
                (truncate ? std::ios::trunc : std::ios::app));
  if (!*out) {
    delete out;
    return false;
  }
  stream_ = out;
  return true;
}

bool DurableAppendFile::isOpen() const { return stream_ != nullptr; }

bool DurableAppendFile::appendLine(const std::string& line) {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  (*out) << line << '\n';
  return static_cast<bool>(*out);
}

bool DurableAppendFile::appendTorn(const std::string& line,
                                   std::size_t bytes) {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  out->write(line.data(),
             static_cast<std::streamsize>(std::min(bytes, line.size())));
  out->flush();
  return static_cast<bool>(*out);
}

bool DurableAppendFile::sync() {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  out->flush();
  return static_cast<bool>(*out);
}

void DurableAppendFile::close() {
  if (stream_ != nullptr) {
    auto* out = static_cast<std::ofstream*>(stream_);
    out->flush();
    delete out;
    stream_ = nullptr;
  }
}

int DurableAppendFile::fd() const { return -1; }

#endif  // SPT_CHECKPOINT_POSIX

}  // namespace spt::harness
