// Byte-stream plumbing shared by the project's two pipe/socket protocols.
//
// The supervisor's SPTW pipes and the sweep service's SPTS socket both
// speak the same frame discipline — magic | u32 version | u8 kind |
// u64 length | payload | u64 FNV-1a(kind, length, payload) — so the
// codec lives here once, parameterized by a FrameFormat: the 4-byte
// magic, the one version a protocol speaks, and its highest kind.
//
// The Unix-domain socket helpers are the minimal nonblocking set a
// single-threaded poll() event loop needs: listen/connect/accept with
// errno turned into diagnostics, and EINTR-tolerant read/write wrappers
// that never raise SIGPIPE surprises past the caller (callers still
// ignore SIGPIPE; writes report EPIPE as a clean false).
#pragma once

#include <cstdint>
#include <string>

namespace spt::support::wire {

/// Frame layout: 4 magic + 4 version + 1 kind + 8 length, then the
/// payload and the 8-byte checksum.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1 + 8;
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// A frame larger than this is corruption, not a result.
inline constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 28;

/// One protocol's frame dialect.
struct FrameFormat {
  char magic[4];
  std::uint32_t version;
  std::uint8_t max_kind;
  /// Completes "frame kind K is not ..." for an out-of-range kind.
  const char* kinds;
};

std::string encodeFrame(const FrameFormat& format, std::uint8_t kind,
                        const std::string& payload);

/// Incremental scan state for a byte stream of frames.
enum class FrameScan {
  kNeedMore,  // the buffer holds a valid but incomplete frame prefix
  kFrame,     // buf[0..*frame_bytes) is one complete frame
  kCorrupt,   // the buffer can never become a valid frame (bad magic,
              // unsupported version, or oversized length)
};

/// Scans the front of `buf` for one complete frame without copying. A
/// garbage stream is rejected on the first bytes that prove it garbage
/// (magic from byte 0, version once 8 bytes arrived). Corruption inside
/// the payload (checksum) is only detectable by decodeFrame.
FrameScan scanFrame(const FrameFormat& format, const std::string& buf,
                    std::size_t* frame_bytes, std::string* error);

/// Decodes one complete frame (as delimited by scanFrame): validates
/// magic, version, kind, length, and checksum. Returns false with a
/// reason ("empty reply", "short reply", "frame length mismatch",
/// "frame checksum mismatch", ...) otherwise.
bool decodeFrame(const FrameFormat& format, const std::string& frame,
                 std::uint8_t* kind, std::string* payload,
                 std::string* error);

/// Lower-case hex of the first `limit` bytes, ".." appended when cut.
std::string hexDump(const std::string& bytes, std::size_t limit);

// ---- Unix-domain sockets (POSIX only) -------------------------------------

/// True when this platform has AF_UNIX sockets (same platforms where
/// Supervisor::isolationSupported()).
bool socketsSupported();

/// Binds and listens on `path`. An existing socket file is probed with a
/// connect first: refused (ECONNREFUSED — the stale leftover of a crashed
/// service) is unlinked and replaced; accepted (a live service owns the
/// path) refuses to start; a non-socket file at the path is never
/// touched. Returns the listening fd, or -1 with `error` set.
int listenUnix(const std::string& path, int backlog, std::string* error);

/// Connects to a listening Unix socket. Returns the fd, or -1 with
/// `error` set (ENOENT / ECONNREFUSED read as "service not running").
int connectUnix(const std::string& path, std::string* error);

/// O_NONBLOCK on/off; false on fcntl failure.
bool setNonBlocking(int fd, bool enable);

/// Writes all `n` bytes to a blocking fd, retrying on EINTR. Requires
/// SIGPIPE ignored; a peer hangup surfaces as false, not a signal.
bool writeAllFd(int fd, const char* data, std::size_t n);

/// Reads up to `max_bytes` from `fd`, appending to `*buf`, retrying on
/// EINTR. Returns bytes read (> 0), 0 on EOF, -1 on EAGAIN/EWOULDBLOCK
/// (nonblocking fd, no data), -2 on any other error.
int readSomeFd(int fd, std::string* buf, std::size_t max_bytes);

}  // namespace spt::support::wire
