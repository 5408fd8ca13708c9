#include "support/wire.h"

#include <algorithm>
#include <cstring>

#include "support/fnv.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_WIRE_POSIX 1
#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace spt::support::wire {
namespace {

void appendRaw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

std::uint64_t frameChecksum(std::uint8_t kind, std::uint64_t length,
                            const char* payload) {
  std::uint64_t checksum = kFnvOffset;
  checksum = fnv1a(checksum, &kind, sizeof kind);
  checksum = fnv1a(checksum, &length, sizeof length);
  checksum = fnv1a(checksum, payload, static_cast<std::size_t>(length));
  return checksum;
}

std::string badMagic(const std::string& bytes) {
  return "bad frame magic (first bytes " + hexDump(bytes, 8) + ")";
}

}  // namespace

std::string hexDump(const std::string& bytes, std::size_t limit) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  const std::size_t n = std::min(bytes.size(), limit);
  out.reserve(n * 2 + 2);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  if (bytes.size() > limit) out += "..";
  return out;
}

std::string encodeFrame(const FrameFormat& format, std::uint8_t kind,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  appendRaw(out, format.magic, 4);
  appendRaw(out, &format.version, sizeof format.version);
  appendRaw(out, &kind, sizeof kind);
  const std::uint64_t length = payload.size();
  appendRaw(out, &length, sizeof length);
  out.append(payload);
  const std::uint64_t checksum =
      frameChecksum(kind, length, payload.data());
  appendRaw(out, &checksum, sizeof checksum);
  return out;
}

FrameScan scanFrame(const FrameFormat& format, const std::string& buf,
                    std::size_t* frame_bytes, std::string* error) {
  const auto corrupt = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return FrameScan::kCorrupt;
  };
  const std::size_t magic_avail = std::min<std::size_t>(buf.size(), 4);
  if (std::memcmp(buf.data(), format.magic, magic_avail) != 0) {
    return corrupt(badMagic(buf));
  }
  if (buf.size() < 8) return FrameScan::kNeedMore;
  std::uint32_t version = 0;
  std::memcpy(&version, buf.data() + 4, sizeof version);
  if (version != format.version) {
    return corrupt("unsupported frame version " + std::to_string(version));
  }
  if (buf.size() < kFrameHeaderBytes) return FrameScan::kNeedMore;
  std::uint64_t length = 0;
  std::memcpy(&length, buf.data() + 4 + 4 + 1, sizeof length);
  if (length > kMaxFramePayloadBytes) {
    return corrupt("frame length " + std::to_string(length) +
                   " exceeds the payload cap");
  }
  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(length) +
                            kFrameTrailerBytes;
  if (buf.size() < total) return FrameScan::kNeedMore;
  if (frame_bytes != nullptr) *frame_bytes = total;
  return FrameScan::kFrame;
}

bool decodeFrame(const FrameFormat& format, const std::string& frame,
                 std::uint8_t* kind, std::string* payload,
                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  constexpr std::size_t kEmptyFrame = kFrameHeaderBytes + kFrameTrailerBytes;
  if (frame.empty()) return fail("empty reply (no frame)");
  if (frame.size() < kEmptyFrame) {
    return fail("short reply: " + std::to_string(frame.size()) +
                " bytes, frame header needs " + std::to_string(kEmptyFrame));
  }
  if (std::memcmp(frame.data(), format.magic, 4) != 0) {
    return fail(badMagic(frame));
  }
  std::uint32_t version = 0;
  std::memcpy(&version, frame.data() + 4, sizeof version);
  if (version != format.version) {
    return fail("unsupported frame version " + std::to_string(version) +
                " (expected " + std::to_string(format.version) + ")");
  }
  const std::uint8_t k = static_cast<std::uint8_t>(frame[4 + 4]);
  if (k > format.max_kind) {
    return fail("frame kind " + std::to_string(k) + " is not " +
                format.kinds);
  }
  std::uint64_t length = 0;
  std::memcpy(&length, frame.data() + 4 + 4 + 1, sizeof length);
  if (length > kMaxFramePayloadBytes) {
    return fail("frame length " + std::to_string(length) +
                " exceeds the payload cap");
  }
  if (frame.size() != kEmptyFrame + length) {
    return fail("frame length mismatch: header says " +
                std::to_string(length) + " payload bytes, reply carries " +
                std::to_string(frame.size() - kEmptyFrame));
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, frame.data() + kFrameHeaderBytes + length,
              sizeof stored);
  const std::uint64_t checksum =
      frameChecksum(k, length, frame.data() + kFrameHeaderBytes);
  if (stored != checksum) {
    return fail("frame checksum mismatch: stored " + std::to_string(stored) +
                ", computed " + std::to_string(checksum) +
                " (reply bytes corrupted)");
  }
  if (kind != nullptr) *kind = k;
  if (payload != nullptr) {
    payload->assign(frame, kFrameHeaderBytes,
                    static_cast<std::size_t>(length));
  }
  return true;
}

#if SPT_WIRE_POSIX

bool socketsSupported() { return true; }

int listenUnix(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A leftover socket file would fail the bind with EADDRINUSE whether
  // its owner is alive or was SIGKILLed, so probe it with a connect: a
  // refused connection means nobody is accepting — a stale file from an
  // unclean crash — and is safe to unlink; an accepted connection means a
  // live service owns the path and this start must refuse rather than
  // steal it. Only a real socket is ever unlinked: a regular file at the
  // path also refuses the connect, and deleting a user's file because it
  // shares a name with our socket would be unforgivable.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      if (error) {
        *error = "socket path " + path + " exists and is not a socket";
      }
      ::close(fd);
      return -1;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      int rc;
      do {
        rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
      } while (rc != 0 && errno == EINTR);
      const int connect_errno = errno;
      ::close(probe);
      if (rc == 0) {
        if (error) {
          *error = "socket path " + path +
                   " is owned by a live service; refusing to replace it";
        }
        ::close(fd);
        return -1;
      }
      if (connect_errno != ECONNREFUSED && connect_errno != ENOENT) {
        if (error) {
          *error = "probe connect " + path + ": " +
                   std::strerror(connect_errno);
        }
        ::close(fd);
        return -1;
      }
    }
    ::unlink(path.c_str());
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (error) {
      *error = "bind " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    if (error) {
      *error = "listen " + path + ": " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

int connectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error) {
      *error = "connect " + path + ": " + std::strerror(errno) +
               (errno == ENOENT || errno == ECONNREFUSED
                    ? " (is the service running?)"
                    : "");
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

bool setNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool writeAllFd(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

int readSomeFd(int fd, std::string* buf, std::size_t max_bytes) {
  char chunk[65536];
  const std::size_t want = std::min(max_bytes, sizeof chunk);
  ssize_t n;
  do {
    n = ::read(fd, chunk, want);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    buf->append(chunk, static_cast<std::size_t>(n));
    return static_cast<int>(n);
  }
  if (n == 0) return 0;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
  return -2;
}

#else  // !SPT_WIRE_POSIX

bool socketsSupported() { return false; }
int listenUnix(const std::string&, int, std::string* error) {
  if (error) *error = "unix sockets are not supported on this platform";
  return -1;
}
int connectUnix(const std::string&, std::string* error) {
  if (error) *error = "unix sockets are not supported on this platform";
  return -1;
}
bool setNonBlocking(int, bool) { return false; }
bool writeAllFd(int, const char*, std::size_t) { return false; }
int readSomeFd(int, std::string*, std::size_t) { return -2; }

#endif  // SPT_WIRE_POSIX

}  // namespace spt::support::wire
