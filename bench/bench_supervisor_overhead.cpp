// Per-cell supervision overhead: the warm worker pool vs the resident
// sweep service.
//
// Runs a trivial producer (the cell body is ~free) through the supervisor
// and reports microseconds of supervision overhead per cell — the
// request/reply dispatch to pooled workers, plus the pool fill and reap
// amortized over the run (BENCH_supervisor_overhead.json).
//
// The serve row measures the same dispatch through `sptc serve`'s socket
// path instead — one echo request of N cells submitted to a resident
// service over AF_UNIX — so it prices the extra frame codec + socket hops
// the service adds on top of the pool it multiplexes.
//
// Flags:
//   --cells N    cells per timed run (default 256)
//   --jobs N     workers in flight / pool size (default 4)
//   --reps N     timed repetitions, fastest wins (default 3)
//   --json PATH  results document (default: BENCH_supervisor_overhead.json)
//   --no-json    skip the JSON document
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/supervisor.h"
#include "harness/sweep_service.h"
#include "support/json.h"
#include "support/stats.h"
#include "support/table.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define BENCH_SERVE_POSIX 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using Clock = std::chrono::steady_clock;

double secondsPerRun(const spt::harness::Supervisor& sup, std::size_t cells,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const auto outcomes =
        sup.run(cells, [](std::size_t cell) { return std::to_string(cell); });
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    for (const auto& oc : outcomes) {
      if (oc.status != spt::harness::CellStatus::kOk) {
        std::cerr << "bench_supervisor_overhead: cell failed: "
                  << oc.diagnostic << "\n";
        std::exit(1);
      }
    }
    best = std::min(best, elapsed.count());
  }
  return best;
}

#ifdef BENCH_SERVE_POSIX

volatile std::sig_atomic_t g_serve_stop = 0;
extern "C" void serveStopHandler(int) { g_serve_stop = 1; }

/// Forks a resident SweepService sized like the pooled supervisor and
/// returns its pid once the socket answers (-1 on failure).
pid_t startServiceChild(const std::string& socket_path, std::size_t jobs) {
  ::unlink(socket_path.c_str());
  const pid_t pid = ::fork();
  if (pid == 0) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = serveStopHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    spt::harness::SweepServiceOptions so;
    so.socket_path = socket_path;
    so.supervisor.jobs = jobs;
    so.stop = &g_serve_stop;
    spt::harness::SweepService service(std::move(so));
    ::_exit(service.run());
  }
  for (int i = 0; i < 200; ++i) {
    if (spt::harness::queryServiceStatus(socket_path)) return pid;
    ::usleep(50 * 1000);
  }
  std::cerr << "bench_supervisor_overhead: service did not come up\n";
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

double secondsPerServeRun(const std::string& socket_path, std::size_t cells,
                          int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    spt::harness::ServiceRequest req;
    req.kind = spt::harness::ServiceRequest::Kind::kEcho;
    req.echo_cells = cells;
    req.echo_payload = "bench";
    const auto start = Clock::now();
    const auto out = spt::harness::submitToService(socket_path, req);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (!out.ok || out.echoes.size() != cells) {
      std::cerr << "bench_supervisor_overhead: serve request failed: "
                << out.error << "\n";
      std::exit(1);
    }
    best = std::min(best, elapsed.count());
  }
  return best;
}

#endif  // BENCH_SERVE_POSIX

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells = 256;
  std::size_t jobs = 4;
  int reps = 3;
  std::string json_path = "BENCH_supervisor_overhead.json";
  bool write_json = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cells" && i + 1 < argc) {
      cells = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, static_cast<int>(std::strtol(argv[++i], nullptr, 10)));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--no-json") {
      write_json = false;
    } else {
      std::cerr << "bench_supervisor_overhead: usage: [--cells N] [--jobs N] "
                   "[--reps N] [--json PATH] [--no-json]\n";
      return 2;
    }
  }
  if (!spt::harness::Supervisor::isolationSupported()) {
    std::cerr << "bench_supervisor_overhead: no fork on this platform\n";
    return 1;
  }

  spt::harness::SupervisorOptions opts;
  opts.isolate = true;
  opts.jobs = jobs;
  const spt::harness::Supervisor pooled(opts);

  // Warm the path once (page cache, lazy binding) before timing.
  secondsPerRun(pooled, std::min<std::size_t>(cells, 16), 1);

  const double pool_s = secondsPerRun(pooled, cells, reps);
  const double pool_us = pool_s / static_cast<double>(cells) * 1e6;

  // The socket path on top of the same pool: a resident service child,
  // one echo request per timed run.
  double serve_s = 0.0;
  double serve_us = 0.0;
  bool have_serve = false;
#ifdef BENCH_SERVE_POSIX
  if (spt::harness::SweepService::supported()) {
    const std::string socket_path =
        "/tmp/spt_bench_serve_" + std::to_string(::getpid()) + ".sock";
    const pid_t service = startServiceChild(socket_path, jobs);
    if (service > 0) {
      secondsPerServeRun(socket_path, std::min<std::size_t>(cells, 16), 1);
      serve_s = secondsPerServeRun(socket_path, cells, reps);
      serve_us = serve_s / static_cast<double>(cells) * 1e6;
      have_serve = true;
      ::kill(service, SIGTERM);
      int status = 0;
      ::waitpid(service, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::cerr << "bench_supervisor_overhead: service drain failed\n";
        return 1;
      }
    }
  }
#endif

  spt::support::Table t("per-cell supervision overhead (" +
                        std::to_string(cells) + " trivial cells, " +
                        std::to_string(jobs) + " jobs, best of " +
                        std::to_string(reps) + ")");
  t.setHeader({"dispatch path", "total s", "us/cell"});
  t.addRow({"warm pool", spt::support::fixed(pool_s, 3),
            spt::support::fixed(pool_us, 1)});
  if (have_serve) {
    t.addRow({"sweep service", spt::support::fixed(serve_s, 3),
              spt::support::fixed(serve_us, 1)});
  }
  t.print(std::cout);

  if (write_json) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: could not write " << json_path << "\n";
      return 1;
    }
    spt::support::JsonWriter w(out);
    w.beginObject();
    w.member("cells", static_cast<std::uint64_t>(cells));
    w.member("jobs", static_cast<std::uint64_t>(jobs));
    w.member("reps", static_cast<std::uint64_t>(reps));
    w.member("warm_pool_us", pool_us);
    if (have_serve) w.member("serve_per_cell_us", serve_us);
    w.endObject();
    out << "\n";
    std::cout << "results: " << json_path << "\n";
  }
  return 0;
}
