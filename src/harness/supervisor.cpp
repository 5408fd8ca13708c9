#include "harness/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>

#include "harness/cell_codec.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/thread_pool.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_SUPERVISOR_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SPT_SUPERVISOR_POSIX 0
#endif

namespace spt::harness {

namespace wire = support::wire;

std::string encodePoolReply(const PoolReplyHeader& header,
                            const std::string& inner) {
  ByteWriter w;
  w.u64(header.id);
  w.f64(header.user_seconds);
  w.f64(header.sys_seconds);
  w.u64(static_cast<std::uint64_t>(header.max_rss_kb));
  return w.take() + inner;
}

bool decodePoolReply(const std::string& payload, PoolReplyHeader* header,
                     std::string* inner) {
  ByteReader r(payload);
  std::uint64_t rss = 0;
  if (!(r.u64(&header->id) && r.f64(&header->user_seconds) &&
        r.f64(&header->sys_seconds) && r.u64(&rss))) {
    return false;
  }
  header->max_rss_kb = static_cast<std::int64_t>(rss);
  inner->assign(payload, r.position(), std::string::npos);
  return true;
}

std::string encodePoolRequest(std::uint64_t id, std::uint32_t attempt,
                              support::ChaosAction chaos,
                              const std::string& spec) {
  ByteWriter w;
  w.u64(id);
  w.u32(attempt);
  w.u8(static_cast<std::uint8_t>(chaos));
  return w.take() + spec;
}

bool decodePoolRequest(const std::string& payload, std::uint64_t* id,
                       std::uint32_t* attempt, support::ChaosAction* chaos,
                       std::string* spec) {
  ByteReader r(payload);
  std::uint8_t action = 0;
  if (!(r.u64(id) && r.u32(attempt) && r.u8(&action)) ||
      action > static_cast<std::uint8_t>(support::ChaosAction::kExit)) {
    return false;
  }
  *chaos = static_cast<support::ChaosAction>(action);
  spec->assign(payload, r.position(), std::string::npos);
  return true;
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.jobs == 0) {
    options_.jobs = support::ThreadPool::defaultWorkerCount();
  }
}

double backoffSeconds(const SupervisorOptions& options, std::size_t cell,
                      std::uint32_t attempt) {
  if (attempt < 2) return 0.0;
  // Chain deriveSeed so cell and attempt enter the splitmix64 finalizer as
  // separate words: the old `cell * 64 + attempt` packing collided (e.g.
  // (cell 0, attempt 66) with (cell 1, attempt 2)), giving those pairs an
  // identical jitter stream.
  support::Rng rng(support::deriveSeed(
      support::deriveSeed(options.backoff_seed, cell), attempt));
  // Clamp the exponent: `1ull << (attempt - 2)` is UB once attempt >= 66,
  // and any delay beyond 2^62 * base is indistinguishable from forever.
  const std::uint32_t exponent = std::min<std::uint32_t>(attempt - 2, 62);
  const double factor = static_cast<double>(1ull << exponent);
  return options.backoff_base_seconds * factor * (1.0 + rng.nextDouble());
}

#if SPT_SUPERVISOR_POSIX

namespace {

using Clock = std::chrono::steady_clock;

/// ru_maxrss is KB on Linux but **bytes** on macOS; WorkerDiagnostics
/// promises KB, so normalize here.
std::int64_t maxRssKb(const rusage& ru) {
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss) / 1024;
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);
#endif
}

double timevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Deterministic garbage for ChaosAction::kGarbage: seeded by the job id so
/// the bytes (and thus the protocol-error diagnostics) are reproducible,
/// and guaranteed not to start with the frame magic.
std::string chaosGarbage(std::uint64_t id) {
  support::Rng rng(support::deriveSeed(0xc4a05, id));
  std::string bytes(64, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.nextBelow(256));
  }
  bytes[0] = static_cast<char>(static_cast<unsigned char>(bytes[0]) | 0x80);
  return bytes;
}

/// Executes a non-kNone chaos action inside a worker. Never returns except
/// for kHang's pause loop (which also never returns). A kPartial worker
/// emits the first half of a valid reply frame to request `id`.
[[noreturn]] void performChaos(support::ChaosAction action, int fd,
                               std::uint64_t id) {
  switch (action) {
    case support::ChaosAction::kCrash:
      // Sanitizer runtimes install SIGSEGV handlers that turn the crash
      // into a clean exit; restore the default action so the parent sees
      // a genuine signal death on every build type.
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      ::_exit(97);  // unreachable
    case support::ChaosAction::kAbort:
      ::signal(SIGABRT, SIG_DFL);
      std::abort();
    case support::ChaosAction::kHang:
      for (;;) ::pause();
    case support::ChaosAction::kGarbage: {
      const std::string garbage = chaosGarbage(id);
      wire::writeAllFd(fd, garbage.data(), garbage.size());
      ::close(fd);
      ::_exit(0);
    }
    case support::ChaosAction::kPartial: {
      const std::string frame = encodeSupervisorFrame(
          kFrameKindReply,
          encodePoolReply({id, 0.0, 0.0, 0}, "chaos-partial-payload"));
      wire::writeAllFd(fd, frame.data(), frame.size() / 2);
      ::close(fd);
      ::_exit(0);
    }
    case support::ChaosAction::kExit:
    case support::ChaosAction::kNone:  // unreachable; callers filter kNone
      ::_exit(3);
  }
  ::_exit(3);
}

/// Re-arms the per-cell CPU window of a pooled worker. RLIMIT_CPU counts
/// cumulative process CPU, so a long-lived worker must move the limit
/// forward before each cell: budget measured from CPU already spent.
/// Only the soft limit moves — an unprivileged process cannot raise its
/// own hard limit, so touching rlim_max would make every re-arm after the
/// first fail with EPERM and freeze the CPU window on the first cell's
/// budget (SIGXCPU on healthy cells, misreported as timeouts).
void armPooledCpuLimit(std::uint64_t limit_seconds) {
  if (limit_seconds == 0) return;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  // +1 rounds the already-spent seconds up so a worker that burned 0.9s
  // on earlier cells still gets the full window for this one.
  const rlim_t used =
      static_cast<rlim_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) + 1;
  rlimit rl{};
  if (::getrlimit(RLIMIT_CPU, &rl) != 0) return;
  rlim_t want = used + static_cast<rlim_t>(limit_seconds);
  if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) {
    want = rl.rlim_max;  // the inherited hard cap wins
  }
  rl.rlim_cur = want;
  if (::setrlimit(RLIMIT_CPU, &rl) != 0) {
    // Enforcement degrades to the previous window; the parent's wall-clock
    // watchdog still bounds the cell, so warn rather than die.
    std::fprintf(stderr,
                 "sptc worker %d: re-arming RLIMIT_CPU failed: %s\n",
                 static_cast<int>(::getpid()), std::strerror(errno));
  }
}

/// One decoded request off a pooled worker's request pipe.
struct PoolWorkerRequest {
  std::uint64_t id = 0;
  std::uint32_t attempt = 1;
  support::ChaosAction chaos = support::ChaosAction::kNone;
  std::string spec;
};

/// Blocks until one complete request frame is buffered, decoded, and
/// consumed. Returns false on clean shutdown (parent closed the request
/// pipe). Any malformed bytes on the request pipe are unrecoverable for
/// the worker; it exits and lets the parent's containment classify it.
bool readPoolRequest(int fd, std::string& buf, PoolWorkerRequest* req) {
  for (;;) {
    std::size_t frame_bytes = 0;
    const FrameScan scan = scanSupervisorFrame(buf, &frame_bytes, nullptr);
    if (scan == FrameScan::kCorrupt) ::_exit(2);
    if (scan == FrameScan::kFrame) {
      std::uint8_t kind = 0;
      std::string payload;
      if (!decodeSupervisorFrame(buf.substr(0, frame_bytes), &kind, &payload,
                                 nullptr) ||
          kind != kFrameKindRequest ||
          !decodePoolRequest(payload, &req->id, &req->attempt, &req->chaos,
                             &req->spec)) {
        ::_exit(2);
      }
      buf.erase(0, frame_bytes);
      return true;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof chunk);
    if (r > 0) {
      buf.append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) return false;  // EOF: the run is over
    if (errno == EINTR) continue;
    ::_exit(1);
  }
}

/// Pooled worker body: loop `recv request -> produce -> reply` until the
/// parent closes the request pipe. Every reply is tagged with the id it
/// answers plus the worker's self-reported per-cell rusage. _exit (not
/// exit) so the forked copy of the parent's atexit handlers, static
/// destructors, and stdio buffers never run twice.
[[noreturn]] void runPoolWorker(int request_fd, int reply_fd,
                                const SupervisorOptions& options,
                                const WorkerPool::Producer& produce) {
  if (options.rlimit_as_bytes != 0) {
    rlimit rl{};
    rl.rlim_cur = static_cast<rlim_t>(options.rlimit_as_bytes);
    rl.rlim_max = static_cast<rlim_t>(options.rlimit_as_bytes);
    ::setrlimit(RLIMIT_AS, &rl);
  }

  std::string in;
  PoolWorkerRequest req;
  while (readPoolRequest(request_fd, in, &req)) {
    armPooledCpuLimit(options.rlimit_cpu_seconds);
    if (req.chaos != support::ChaosAction::kNone) {
      performChaos(req.chaos, reply_fd, req.id);
    }

    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    std::uint8_t kind = kFrameKindReply;
    std::string inner;
    try {
      inner = produce(req.spec);
    } catch (const std::exception& e) {
      kind = kFrameKindError;
      inner = e.what();
    } catch (...) {
      kind = kFrameKindError;
      inner = "unknown worker exception";
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    PoolReplyHeader header;
    header.id = req.id;
    header.user_seconds =
        timevalSeconds(after.ru_utime) - timevalSeconds(before.ru_utime);
    header.sys_seconds =
        timevalSeconds(after.ru_stime) - timevalSeconds(before.ru_stime);
    header.max_rss_kb = maxRssKb(after);
    const std::string frame =
        encodeSupervisorFrame(kind, encodePoolReply(header, inner));
    if (!wire::writeAllFd(reply_fd, frame.data(), frame.size())) ::_exit(1);
  }
  ::_exit(0);
}

/// One long-lived pool member. `busy` workers own an in-flight cell and
/// are polled; idle workers sit out of the poll set (a dead idle worker
/// surfaces as a failed request write at the next dispatch).
struct PoolWorker {
  pid_t pid = -1;
  int request_fd = -1;  // parent writes request frames here
  int reply_fd = -1;    // parent reads the worker's reply stream here
  bool busy = false;
  std::uint64_t owner = 0;  // the in-flight cell's owner and index
  std::size_t cell = 0;
  std::uint32_t attempt = 1;
  bool has_deadline = false;
  Clock::time_point deadline;
  std::string buf;  // reply stream accumulator

  /// The job token echoed by the worker's reply (and seeding its chaos
  /// garbage): the cell index in the low word, the owner in the high one,
  /// so a batch's (owner 0) tokens are its cell indices.
  std::uint64_t id() const {
    return owner << 32 | static_cast<std::uint64_t>(cell);
  }
};

/// One finished attempt — a reply, a death, or a watchdog timeout — with
/// the transport classification applied; retrying is decided after.
struct Settled {
  std::uint64_t owner = 0;
  std::size_t cell = 0;
  std::uint32_t attempt = 1;
  Supervisor::Outcome outcome;
};

/// A queued attempt of one owner's cell.
struct Queued {
  std::size_t cell = 0;
  std::uint32_t attempt = 1;
  Clock::time_point not_before;
};

int signalOf(int wait_status) {
  return WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
}

int reapWorker(pid_t pid, rusage* ru) {
  int wait_status = 0;
  while (::wait4(pid, &wait_status, 0, ru) < 0 && errno == EINTR) {
  }
  return wait_status;
}

Clock::time_point deadlineFrom(Clock::time_point now, double seconds) {
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/// A transport failure on `attempt` earns another attempt while retries
/// remain, unless the pool is stopping (interrupt or drain).
bool shouldRetry(const SupervisorOptions& options, CellStatus status,
                 std::uint32_t attempt, bool stopping) {
  return !stopping && isTransportFailure(status) && attempt <= options.retries;
}

/// The longest the loop blocks in one pass, so stop flags and caller
/// deadlines are seen promptly.
constexpr std::chrono::milliseconds kMaxWait{200};

/// Diagnostic for cells cancelled by SupervisorOptions::stop. Settled as
/// kInternalError (never retried, re-run by --resume) with attempts == 0,
/// so no worker block appears in JSON for a cell that never ran one.
constexpr const char* kInterruptedDiagnostic =
    "interrupted by signal before dispatch; finished cells are "
    "checkpointed, re-run with --resume";

}  // namespace

bool Supervisor::isolationSupported() { return true; }

// ---- WorkerPool ------------------------------------------------------------
//
// Containment (spawn/respawn, dispatch writes, reply-stream framing, death
// classification, watchdog) and scheduling (owner queues, round robin,
// retries, cancellation, the bounded wait) both live here, so the batch
// path and the sweep service run cells through one loop and stay
// byte-identical by construction.

struct WorkerPool::Impl {
  struct OwnerState {
    Owner owner;
    std::deque<Queued> ready;     // due now, dispatched front first
    std::vector<Queued> waiting;  // retries still backing off
    std::size_t running = 0;
    std::uint64_t dispatched = 0;
  };

  SupervisorOptions options;
  WorkerPool::Producer produce;
  std::function<void()> child_setup;
  std::size_t target = 0;  // workers the pool keeps alive
  std::vector<PoolWorker> workers;
  std::map<std::uint64_t, OwnerState> owners;
  std::uint64_t last_rr = 0;  // round-robin cursor (owner id)
  std::size_t spawned = 0;
  std::size_t respawned = 0;
  // errno from the most recent failed pipe()/fork() in spawnWorker,
  // captured at the failure site: by the time queued cells settle as
  // unspawnable, intervening close()/kill()/wait4() calls have clobbered
  // the global errno.
  int last_spawn_errno = 0;
  bool stopped = false;
  bool shut_down = false;

  bool spawnWorker() {
    int request[2];
    int reply[2];
    if (::pipe(request) < 0) {
      last_spawn_errno = errno;
      return false;
    }
    if (::pipe(reply) < 0) {
      last_spawn_errno = errno;
      ::close(request[0]);
      ::close(request[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      last_spawn_errno = errno;
      ::close(request[0]);
      ::close(request[1]);
      ::close(reply[0]);
      ::close(reply[1]);
      return false;
    }
    if (pid == 0) {
      ::close(request[1]);
      ::close(reply[0]);
      // Drop inherited ends of sibling workers' pipes, so each worker's
      // EOF semantics depend only on the parent and itself.
      for (const PoolWorker& other : workers) {
        if (other.request_fd >= 0) ::close(other.request_fd);
        if (other.reply_fd >= 0) ::close(other.reply_fd);
      }
      if (child_setup) child_setup();
      runPoolWorker(request[0], reply[1], options, produce);
    }
    ::close(request[0]);
    ::close(reply[1]);
    wire::setNonBlocking(reply[0], true);
    PoolWorker w;
    w.pid = pid;
    w.request_fd = request[1];
    w.reply_fd = reply[0];
    workers.push_back(std::move(w));
    ++spawned;
    return true;
  }

  /// Replaces dead workers while the pool is not stopping; a failed spawn
  /// is retried on the next pass.
  void topUp() {
    while (!stopped && !shut_down && workers.size() < target) {
      if (!spawnWorker()) return;
      ++respawned;
    }
  }

  // Removes worker `wi` from the pool, reaps it, classifies the in-flight
  // attempt (if any) into `out`, and tops the pool back up.
  // `corrupt_reason` is non-empty when the parent detected a garbled reply
  // stream (the worker was killed, or died right after garbling).
  void workerDied(std::size_t wi, bool timed_out,
                  const std::string& corrupt_reason,
                  std::vector<Settled>& out) {
    PoolWorker w = std::move(workers[wi]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(wi));
    rusage ru{};
    const int wait_status = reapWorker(w.pid, &ru);
    if (w.request_fd >= 0) ::close(w.request_fd);
    ::close(w.reply_fd);

    if (w.busy) {
      Supervisor::Outcome oc;
      oc.worker.attempts = w.attempt;
      oc.worker.timed_out = timed_out;
      // Whole-life rusage of the dead worker: the per-cell numbers a
      // healthy pooled reply self-reports are unavailable once it dies.
      oc.worker.host_user_seconds = timevalSeconds(ru.ru_utime);
      oc.worker.host_sys_seconds = timevalSeconds(ru.ru_stime);
      oc.worker.host_max_rss_kb = maxRssKb(ru);

      const int sig = signalOf(wait_status);
      if (timed_out) {
        oc.status = CellStatus::kTimeout;
        oc.worker.term_signal = sig;
        std::ostringstream os;
        os << "worker exceeded the " << options.cell_timeout_seconds
           << "s wall-clock deadline on attempt " << w.attempt
           << "; killed (SIGKILL)";
        oc.diagnostic = os.str();
      } else if (!corrupt_reason.empty()) {
        oc.status = CellStatus::kProtocolError;
        if (sig != 0) {
          oc.worker.term_signal = sig;
        } else {
          oc.worker.exit_code = WEXITSTATUS(wait_status);
        }
        oc.diagnostic =
            "worker reply failed frame validation: " + corrupt_reason +
            (sig == 0 ? " (exit code " + std::to_string(oc.worker.exit_code) +
                            ")"
                      : "");
        if (!w.buf.empty()) oc.worker.partial_reply = wire::hexDump(w.buf, 64);
      } else if (sig != 0) {
        oc.worker.term_signal = sig;
        if (sig == SIGXCPU) {
          oc.status = CellStatus::kTimeout;
          oc.diagnostic = "worker hit RLIMIT_CPU (" +
                          std::to_string(options.rlimit_cpu_seconds) +
                          "s) and died on SIGXCPU";
        } else {
          oc.status = CellStatus::kCrashed;
          const char* name = ::strsignal(sig);
          oc.diagnostic = "worker killed by signal " + std::to_string(sig) +
                          (name != nullptr ? std::string(" (") + name + ")"
                                           : std::string()) +
                          " after " + std::to_string(w.buf.size()) +
                          " reply bytes";
        }
        if (!w.buf.empty()) oc.worker.partial_reply = wire::hexDump(w.buf, 64);
      } else {
        // Exited without completing a reply: decode what arrived for the
        // specific reason ("empty reply", "short reply", ...).
        oc.worker.exit_code = WEXITSTATUS(wait_status);
        std::string why;
        decodeSupervisorFrame(w.buf, nullptr, nullptr, &why);
        oc.status = CellStatus::kProtocolError;
        oc.diagnostic = "worker reply failed frame validation: " + why +
                        " (exit code " +
                        std::to_string(oc.worker.exit_code) + ")";
        if (!w.buf.empty()) oc.worker.partial_reply = wire::hexDump(w.buf, 64);
      }
      out.push_back({w.owner, w.cell, w.attempt, std::move(oc)});
    }

    // Respawn only the dead worker; the rest of the pool keeps draining.
    topUp();
  }

  // Consumes completed frames from worker `wi`'s reply stream. Returns
  // false (after containment) if the worker had to be killed.
  bool drainReplies(std::size_t wi, std::vector<Settled>& out) {
    PoolWorker& w = workers[wi];
    for (;;) {
      std::size_t frame_bytes = 0;
      std::string why;
      const FrameScan scan = scanSupervisorFrame(w.buf, &frame_bytes, &why);
      if (scan == FrameScan::kNeedMore) return true;
      std::uint8_t kind = 0;
      std::string payload;
      if (scan == FrameScan::kCorrupt ||
          !decodeSupervisorFrame(w.buf.substr(0, frame_bytes), &kind,
                                 &payload, &why)) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false, why, out);
        return false;
      }
      w.buf.erase(0, frame_bytes);

      PoolReplyHeader header;
      std::string inner;
      const bool tagged = kind != kFrameKindRequest &&
                          decodePoolReply(payload, &header, &inner);
      if (!w.busy || !tagged || header.id != w.id()) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false,
                   !w.busy   ? "unsolicited reply from an idle worker"
                   : !tagged ? "reply frame is not a tagged reply"
                             : "reply answers job " + std::to_string(header.id) +
                                   " but job " + std::to_string(w.id()) +
                                   " was dispatched",
                   out);
        return false;
      }

      Supervisor::Outcome oc;
      oc.worker.attempts = w.attempt;
      oc.worker.exit_code = 0;  // a completed reply means a healthy worker
      oc.worker.host_user_seconds = header.user_seconds;
      oc.worker.host_sys_seconds = header.sys_seconds;
      oc.worker.host_max_rss_kb = header.max_rss_kb;
      if (kind == kFrameKindReply) {
        oc.status = CellStatus::kOk;
        oc.payload = std::move(inner);
      } else {
        oc.status = CellStatus::kInternalError;
        oc.diagnostic = "worker error: " + inner;
      }
      w.busy = false;
      w.has_deadline = false;
      out.push_back({w.owner, w.cell, w.attempt, std::move(oc)});
    }
  }

  /// Writes one request frame to an idle worker. A dead request pipe
  /// replaces that worker and tries the next idle one; false means no
  /// idle worker could take the cell — it was not sent and no attempt
  /// was burned.
  bool dispatch(std::uint64_t owner, const Queued& q,
                support::ChaosAction chaos, const std::string& spec) {
    for (;;) {
      const auto it = std::find_if(workers.begin(), workers.end(),
                                   [](const PoolWorker& w) { return !w.busy; });
      if (it == workers.end()) return false;
      PoolWorker& w = *it;
      w.owner = owner;
      w.cell = q.cell;
      const std::string frame = encodeSupervisorFrame(
          kFrameKindRequest, encodePoolRequest(w.id(), q.attempt, chaos, spec));
      if (!wire::writeAllFd(w.request_fd, frame.data(), frame.size())) {
        ::kill(w.pid, SIGKILL);
        std::vector<Settled> none;  // an idle worker settles nothing
        workerDied(static_cast<std::size_t>(it - workers.begin()),
                   /*timed_out=*/false, "", none);
        continue;
      }
      w.busy = true;
      w.attempt = q.attempt;
      w.buf.clear();
      w.has_deadline = options.cell_timeout_seconds > 0.0;
      if (w.has_deadline) {
        w.deadline = deadlineFrom(Clock::now(), options.cell_timeout_seconds);
      }
      return true;
    }
  }

  bool anyIdle() const {
    return std::any_of(workers.begin(), workers.end(),
                       [](const PoolWorker& w) { return !w.busy; });
  }

  /// Fair dispatch: rotate over owners from the cursor, taking at most one
  /// due cell per owner per rotation, while idle workers last.
  void dispatchDue(Clock::time_point now) {
    bool progress = true;
    while (progress && !stopped && anyIdle()) {
      progress = false;
      auto it = owners.upper_bound(last_rr);
      for (std::size_t n = 0; n < owners.size() && anyIdle(); ++n) {
        if (it == owners.end()) it = owners.begin();
        const std::uint64_t id = it->first;
        OwnerState& o = it->second;
        ++it;
        for (auto w = o.waiting.begin(); w != o.waiting.end();) {
          if (w->not_before <= now) {
            // A retry already waited its backoff; it goes to the front
            // rather than behind the owner's whole remaining grid.
            o.ready.push_front(*w);
            w = o.waiting.erase(w);
          } else {
            ++w;
          }
        }
        if (o.ready.empty()) continue;
        const Queued q = o.ready.front();
        if (!dispatch(id, q, o.owner.chaos.actionFor(q.cell, q.attempt),
                      o.owner.spec(q.cell))) {
          return;  // no idle worker could take the cell
        }
        o.ready.pop_front();
        ++o.running;
        ++o.dispatched;
        last_rr = id;
        progress = true;
      }
    }
  }

  /// Removes the owner's queued attempts, in index order.
  static std::vector<Queued> take(OwnerState& o) {
    std::vector<Queued> cells(o.ready.begin(), o.ready.end());
    cells.insert(cells.end(), o.waiting.begin(), o.waiting.end());
    o.ready.clear();
    o.waiting.clear();
    std::sort(cells.begin(), cells.end(),
              [](const Queued& a, const Queued& b) { return a.cell < b.cell; });
    return cells;
  }

  /// Hands a final outcome to its owner, if still registered. The hook
  /// may add or remove owners, so it runs on a copy.
  void settle(std::uint64_t owner, std::size_t cell,
              Supervisor::Outcome outcome) {
    const auto it = owners.find(owner);
    if (it == owners.end()) return;
    const auto hook = it->second.owner.settle;
    hook(cell, std::move(outcome));
  }

  /// The pool could not be (re)built: fail every queued cell rather than
  /// leave it waiting for a worker that never comes.
  void failQueued() {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, o] : owners) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      const auto it = owners.find(id);
      if (it == owners.end()) continue;
      for (const Queued& q : take(it->second)) {
        Supervisor::Outcome oc;
        oc.status = CellStatus::kCrashed;
        oc.worker.attempts = q.attempt;
        oc.diagnostic = std::string("worker pool spawn failed: ") +
                        std::strerror(last_spawn_errno);
        settle(id, q.cell, std::move(oc));
      }
    }
  }

  /// Blocks in poll() on busy workers' reply pipes plus the caller's fds
  /// until the nearest deadline, retry, or `wake` — never past kMaxWait.
  void wait(std::vector<pollfd>* extra, Clock::time_point wake) {
    const Clock::time_point now = Clock::now();
    Clock::time_point until = std::min(wake, now + kMaxWait);
    for (const PoolWorker& w : workers) {
      if (w.busy && w.has_deadline) until = std::min(until, w.deadline);
    }
    if (!stopped) {  // a stopped pool dispatches no retry
      for (const auto& [id, o] : owners) {
        for (const Queued& q : o.waiting) {
          until = std::min(until, q.not_before);
        }
      }
    }
    const long long timeout_ms = std::max<long long>(
        0, std::chrono::ceil<std::chrono::milliseconds>(until - now).count());

    std::vector<pollfd> local;
    std::vector<pollfd>& fds = extra != nullptr ? *extra : local;
    const std::size_t caller_fds = fds.size();
    for (pollfd& f : fds) f.revents = 0;
    for (const PoolWorker& w : workers) {
      if (w.busy) fds.push_back(pollfd{w.reply_fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          static_cast<int>(timeout_ms));
    const int poll_errno = errno;
    fds.resize(caller_fds);
    if (rc < 0) {
      for (pollfd& f : fds) f.revents = 0;
      if (poll_errno != EINTR && poll_errno != EAGAIN) {
        throw support::SptInternalError(
            std::string("worker pool poll() failed: ") +
            std::strerror(poll_errno));
      }
    }
  }

  /// Drains every busy worker's reply stream (non-blocking) and runs the
  /// watchdog; each finished attempt is appended to `settled`.
  void service(std::vector<Settled>& settled) {
    // Snapshot the busy workers by pid: containment inside the loop
    // mutates the pool (and a respawn can reuse a just-closed fd number,
    // so fds are not stable identifiers either).
    std::vector<pid_t> busy_pids;
    for (const PoolWorker& w : workers) {
      if (w.busy) busy_pids.push_back(w.pid);
    }
    for (const pid_t pid : busy_pids) {
      const auto it =
          std::find_if(workers.begin(), workers.end(),
                       [pid](const PoolWorker& w) { return w.pid == pid; });
      if (it == workers.end()) continue;  // removed by a prior pass
      const std::size_t wi = static_cast<std::size_t>(it - workers.begin());
      PoolWorker& w = *it;
      int r;
      while ((r = wire::readSomeFd(w.reply_fd, &w.buf, 1 << 16)) > 0) {
        if (w.buf.size() > wire::kMaxFramePayloadBytes +
                               wire::kFrameHeaderBytes +
                               wire::kFrameTrailerBytes) {
          break;
        }
      }
      if (r > 0) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/false, "oversized reply", settled);
        continue;
      }
      if (!drainReplies(wi, settled)) continue;  // worker replaced
      if (r == 0) {
        // EOF: the worker died (or exited on chaos) — any buffered
        // partial frame is part of the post-mortem.
        workerDied(wi, /*timed_out=*/false, "", settled);
      }
    }

    // Watchdog: SIGKILL overdue busy workers; their cells settle as
    // timeouts and the workers are replaced.
    const Clock::time_point now = Clock::now();
    for (std::size_t wi = 0; wi < workers.size();) {
      PoolWorker& w = workers[wi];
      if (w.busy && w.has_deadline && w.deadline <= now) {
        ::kill(w.pid, SIGKILL);
        workerDied(wi, /*timed_out=*/true, "", settled);
      } else {
        ++wi;
      }
    }
  }

  /// Settles each finished attempt with its owner, or queues its retry.
  void collect() {
    std::vector<Settled> settled;
    service(settled);
    for (Settled& s : settled) {
      const auto it = owners.find(s.owner);
      if (it == owners.end()) continue;  // owner gone: result dropped
      OwnerState& o = it->second;
      --o.running;
      if (shouldRetry(options, s.outcome.status, s.attempt, stopped)) {
        const double delay = backoffSeconds(options, s.cell, s.attempt + 1);
        o.waiting.push_back(
            {s.cell, s.attempt + 1, deadlineFrom(Clock::now(), delay)});
        continue;
      }
      settle(s.owner, s.cell, std::move(s.outcome));
    }
  }
};

WorkerPool::WorkerPool(SupervisorOptions options, Producer produce,
                       std::size_t workers, std::function<void()> child_setup)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  impl_->produce = std::move(produce);
  impl_->child_setup = std::move(child_setup);
  impl_->target = workers;
  while (impl_->workers.size() < workers && impl_->spawnWorker()) {
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::addOwner(std::uint64_t id, Owner owner) {
  impl_->owners[id].owner = std::move(owner);
}

void WorkerPool::removeOwner(std::uint64_t id) { impl_->owners.erase(id); }

void WorkerPool::enqueue(std::uint64_t owner, std::size_t cell) {
  impl_->owners.at(owner).ready.push_back({cell, 1, Clock::time_point{}});
}

std::vector<std::size_t> WorkerPool::cancel(std::uint64_t owner) {
  std::vector<std::size_t> cells;
  const auto it = impl_->owners.find(owner);
  if (it == impl_->owners.end()) return cells;
  for (const Queued& q : Impl::take(it->second)) cells.push_back(q.cell);
  return cells;
}

void WorkerPool::stop() { impl_->stopped = true; }

void WorkerPool::step(std::vector<pollfd>* extra,
                      std::chrono::steady_clock::time_point wake) {
  Impl& p = *impl_;
  p.topUp();
  if (p.workers.empty() && !p.stopped) p.failQueued();
  p.dispatchDue(Clock::now());
  p.wait(extra, wake);
  p.collect();
}

std::size_t WorkerPool::queued() const {
  std::size_t n = 0;
  for (const auto& [id, o] : impl_->owners) {
    n += o.ready.size() + o.waiting.size();
  }
  return n;
}

std::size_t WorkerPool::queued(std::uint64_t owner) const {
  const auto it = impl_->owners.find(owner);
  return it == impl_->owners.end()
             ? 0
             : it->second.ready.size() + it->second.waiting.size();
}

std::size_t WorkerPool::running(std::uint64_t owner) const {
  const auto it = impl_->owners.find(owner);
  return it == impl_->owners.end() ? 0 : it->second.running;
}

std::uint64_t WorkerPool::dispatched(std::uint64_t owner) const {
  const auto it = impl_->owners.find(owner);
  return it == impl_->owners.end() ? 0 : it->second.dispatched;
}

std::size_t WorkerPool::workerCount() const { return impl_->workers.size(); }

std::size_t WorkerPool::idleWorkers() const {
  return workerCount() - busyWorkers();
}

std::size_t WorkerPool::busyWorkers() const {
  return static_cast<std::size_t>(
      std::count_if(impl_->workers.begin(), impl_->workers.end(),
                    [](const PoolWorker& w) { return w.busy; }));
}

std::size_t WorkerPool::workersSpawned() const { return impl_->spawned; }

std::size_t WorkerPool::workersRespawned() const { return impl_->respawned; }

void WorkerPool::shutdown() {
  if (impl_ == nullptr || impl_->shut_down) return;
  impl_->shut_down = true;
  // Closing the request pipes is the idle workers' EOF signal; they
  // _exit(0) and are reaped below. A still-busy worker (drain abandoned)
  // is killed so reaping cannot block on it.
  for (PoolWorker& w : impl_->workers) {
    if (w.busy) ::kill(w.pid, SIGKILL);
    if (w.request_fd >= 0) {
      ::close(w.request_fd);
      w.request_fd = -1;
    }
  }
  for (PoolWorker& w : impl_->workers) {
    reapWorker(w.pid, nullptr);
    ::close(w.reply_fd);
  }
  impl_->workers.clear();
}

std::vector<Supervisor::Outcome> Supervisor::run(
    std::size_t n, const Producer& produce, const OnSettled& on_settled,
    PoolStats* stats) const {
  if (stats != nullptr) *stats = PoolStats{};
  std::vector<Outcome> out(n);
  if (n == 0) return out;  // e.g. a fully resumed sweep: fork nothing
  ScopedIgnoreSigpipe sigpipe_guard;

  // Each cell's spec is its index in decimal; the worker parses it back
  // and runs the batch's producer.
  WorkerPool pool(
      options_,
      [&produce](const std::string& spec) {
        return produce(static_cast<std::size_t>(std::stoull(spec)));
      },
      std::min(options_.jobs, n));
  std::size_t settled = 0;
  const auto settle = [&](std::size_t cell, Outcome outcome) {
    out[cell] = std::move(outcome);
    ++settled;
    if (on_settled) on_settled(cell, out[cell]);
  };
  pool.addOwner(0, {[](std::size_t cell) { return std::to_string(cell); },
                    options_.chaos, settle});
  for (std::size_t i = 0; i < n; ++i) pool.enqueue(0, i);

  bool interrupted = false;
  while (settled < n) {
    if (!interrupted && options_.stop != nullptr && *options_.stop != 0) {
      // Graceful interrupt: cancel the queue, drain the in-flight cells.
      interrupted = true;
      pool.stop();
      for (const std::size_t cell : pool.cancel(0)) {
        Outcome oc;
        oc.status = CellStatus::kInternalError;
        oc.diagnostic = kInterruptedDiagnostic;
        settle(cell, std::move(oc));
      }
      continue;
    }
    pool.step();
  }

  pool.shutdown();
  if (stats != nullptr) {
    stats->workers_spawned = pool.workersSpawned();
    stats->workers_respawned = pool.workersRespawned();
  }
  return out;
}

#else  // !SPT_SUPERVISOR_POSIX

bool Supervisor::isolationSupported() { return false; }

std::vector<Supervisor::Outcome> Supervisor::run(std::size_t,
                                                 const Producer&,
                                                 const OnSettled&,
                                                 PoolStats*) const {
  throw support::SptInternalError(
      "process isolation is not supported on this platform (no fork); "
      "use the in-process path");
}

struct WorkerPool::Impl {};

WorkerPool::WorkerPool(SupervisorOptions, Producer, std::size_t,
                       std::function<void()>) {
  throw support::SptInternalError(
      "the warm worker pool is not supported on this platform (no fork)");
}

WorkerPool::~WorkerPool() = default;

void WorkerPool::addOwner(std::uint64_t, Owner) {}
void WorkerPool::removeOwner(std::uint64_t) {}
void WorkerPool::enqueue(std::uint64_t, std::size_t) {}
std::vector<std::size_t> WorkerPool::cancel(std::uint64_t) { return {}; }
void WorkerPool::stop() {}
void WorkerPool::step(std::vector<pollfd>*,
                      std::chrono::steady_clock::time_point) {}
std::size_t WorkerPool::queued() const { return 0; }
std::size_t WorkerPool::queued(std::uint64_t) const { return 0; }
std::size_t WorkerPool::running(std::uint64_t) const { return 0; }
std::uint64_t WorkerPool::dispatched(std::uint64_t) const { return 0; }
std::size_t WorkerPool::workerCount() const { return 0; }
std::size_t WorkerPool::idleWorkers() const { return 0; }
std::size_t WorkerPool::busyWorkers() const { return 0; }
std::size_t WorkerPool::workersSpawned() const { return 0; }
std::size_t WorkerPool::workersRespawned() const { return 0; }
void WorkerPool::shutdown() {}

#endif  // SPT_SUPERVISOR_POSIX

}  // namespace spt::harness
