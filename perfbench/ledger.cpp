#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "support/json.h"

namespace perfbench {

namespace {

double tvMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

Usage usageOf(int who) {
  Usage u;
  u.wall_ms = nowMs();
  rusage ru{};
  if (::getrusage(who, &ru) == 0) {
    u.user_ms = tvMs(ru.ru_utime);
    u.sys_ms = tvMs(ru.ru_stime);
    u.minflt = ru.ru_minflt;
  }
  return u;
}

int threadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next++;
  return number;
}

// The innermost open span on this thread (Scope's implicit parent).
thread_local int t_current_span = -1;

}  // namespace

Usage operator-(const Usage& end, const Usage& start) {
  Usage d;
  d.wall_ms = end.wall_ms - start.wall_ms;
  d.user_ms = end.user_ms - start.user_ms;
  d.sys_ms = end.sys_ms - start.sys_ms;
  d.minflt = end.minflt - start.minflt;
  return d;
}

double nowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Usage threadUsage() { return usageOf(RUSAGE_THREAD); }
Usage processUsage() { return usageOf(RUSAGE_SELF); }

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it (1-based rank ceil(p/100 * n)).
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.value));
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Span::layer() const { return name.substr(0, name.find('.')); }

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::string cell,
                     std::optional<int> parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  saved_parent_ = t_current_span;
  start_ = threadUsage();
  id_ = tracer_.open(std::move(name), std::move(cell),
                     parent.value_or(t_current_span), start_.wall_ms);
  t_current_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const Usage end = threadUsage();
  tracer_.close(id_, end - start_, end.wall_ms);
  t_current_span = saved_parent_;
}

int Tracer::open(std::string name, std::string cell, int parent,
                 double start_ms) {
  Span s;
  s.name = std::move(name);
  s.cell = std::move(cell);
  s.parent = parent;
  s.start_ms = start_ms;
  s.tid = threadNumber();
  const std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(int id, const Usage& delta, double end_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = end_ms;
  s.usage = delta;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> selfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = std::max(0.0, spans[i].durationMs() - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> totalsByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimesMs(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.wall_ms += spans[i].durationMs();
    t.self_ms += self[i];
    t.user_ms += spans[i].usage.user_ms;
    t.sys_ms += spans[i].usage.sys_ms;
    t.minflt += spans[i].usage.minflt;
  }
  return out;
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  spt::support::JsonWriter w(out, 0);
  w.beginObject();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").beginArray();
  for (const Span& s : spans) {
    w.beginObject();
    w.member("name", s.name);
    w.member("cat", s.layer());
    w.member("ph", "X");
    w.member("ts", s.start_ms * 1e3);  // microseconds
    w.member("dur", s.durationMs() * 1e3);
    w.member("pid", 1);
    w.member("tid", s.tid);
    w.key("args").beginObject();
    w.member("id", s.id);
    w.member("parent", s.parent);
    w.member("cell", s.cell);
    w.member("user_ms", s.usage.user_ms);
    w.member("sys_ms", s.usage.sys_ms);
    w.member("minflt", s.usage.minflt);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

namespace {

/// The number after `"key":` inside the object introduced by `"object":`.
std::optional<double> numberIn(const std::string& json,
                               const std::string& object,
                               const std::string& key) {
  const std::size_t obj = json.find("\"" + object + "\":{");
  if (obj == std::string::npos) return std::nullopt;
  const std::size_t end = json.find('}', obj);
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, obj);
  if (at == std::string::npos || at > end) return std::nullopt;
  const char* first = json.c_str() + at + needle.size();
  char* last = nullptr;
  const double v = std::strtod(first, &last);
  if (last == first) return std::nullopt;
  return v;
}

}  // namespace

std::optional<ServiceCounters> parseServiceStatus(const std::string& json) {
  const auto user = numberIn(json, "resource", "host_user_seconds");
  const auto sys = numberIn(json, "resource", "host_sys_seconds");
  const auto rss = numberIn(json, "resource", "host_max_rss_kb");
  const auto cells = numberIn(json, "resource", "supervised_cells");
  const auto attempts = numberIn(json, "resource", "attempts");
  const auto settled = numberIn(json, "counters", "cells_settled");
  const auto respawned = numberIn(json, "workers", "respawned");
  const auto appends = numberIn(json, "journal", "records_appended");
  if (!user || !sys || !rss || !cells || !attempts || !settled ||
      !respawned || !appends) {
    return std::nullopt;
  }
  ServiceCounters c;
  c.host_user_seconds = *user;
  c.host_sys_seconds = *sys;
  c.host_max_rss_kb = static_cast<std::int64_t>(*rss);
  c.supervised_cells = static_cast<std::uint64_t>(*cells);
  c.attempts = static_cast<std::uint64_t>(*attempts);
  c.cells_settled = static_cast<std::uint64_t>(*settled);
  c.respawned = static_cast<std::uint64_t>(*respawned);
  c.journal_appends = static_cast<std::uint64_t>(*appends);
  return c;
}

ServiceCounters operator-(const ServiceCounters& end,
                          const ServiceCounters& start) {
  ServiceCounters d;
  d.host_user_seconds = end.host_user_seconds - start.host_user_seconds;
  d.host_sys_seconds = end.host_sys_seconds - start.host_sys_seconds;
  d.host_max_rss_kb = end.host_max_rss_kb;
  d.supervised_cells = end.supervised_cells - start.supervised_cells;
  d.attempts = end.attempts - start.attempts;
  d.cells_settled = end.cells_settled - start.cells_settled;
  d.respawned = end.respawned - start.respawned;
  d.journal_appends = end.journal_appends - start.journal_appends;
  return d;
}

}  // namespace perfbench
