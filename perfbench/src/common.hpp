// Shared plumbing for the benchmark binary: options, the span recorder,
// the per-run report and small statistics helpers.
//
// mpleo_perfbench measures the library from outside: every span is
// recorded here, around a public library call, never inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/scheduler.hpp"
#include "obs/metrics.hpp"
#include "orbit/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // Length of the measured loop; the loop ends at the first op (or round)
  // boundary past it.
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and short loops: the benchmark's own tests use this to check
  // that every metric is produced, in seconds instead of minutes.
  bool tiny = false;
  // Directory the span file is written to (created by run.py).
  std::string out_dir = ".";
  // Provenance handed in by run.py (the binary itself cannot see git).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// Worker threads for pooled workloads: four, never more than the machine has.
[[nodiscard]] std::size_t pool_threads();
[[nodiscard]] std::size_t hardware_threads();

// In-memory span recorder. A span has a name, start and end (seconds since
// the recorder was made), the span that was open when it began, and the op
// it belongs to (spans of one op share that identifier; -1 outside ops).
// Disabled recorders hand out inert scopes and never read the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::size_t id) : tracer_(tracer), id_(id) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;
    // Ends the span now; later calls and the destructor do nothing.
    void close();

   private:
    Tracer* tracer_ = nullptr;
    std::size_t id_ = 0;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Scope span(std::string_view name);
  void set_op(std::int64_t op) noexcept { op_ = op; }

  // Durations of every closed span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  // Writes {"spans": [{"name", "start_s", "end_s", "parent", "op"}, ...]}.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;
    std::int64_t parent = -1;
    std::int64_t op = -1;
  };
  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }
  void close(std::size_t id);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::int64_t op_ = -1;
};

// What one workload run produced. Metrics carry their unit; checks are the
// oracle and determinism verdicts (each counts as one attempted op).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& json_value);
  void info_text(const std::string& key, const std::string& text);
  void info_number(const std::string& key, double value);

  // Timed ops run and how many of them failed.
  void ops(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // One oracle or determinism check; a failure is printed to stderr.
  void check(const std::string& name, bool ok);

  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

  // The single-line JSON document run.py consumes.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// Op latency summary: median and a fixed tail percentile. The percentile is
// fixed per workload (not derived from the op count) so that a faster build
// running more ops is compared at the same quantile; the report states how
// many ops lay beyond it.
void report_op_latency(Report& report, std::vector<double> op_seconds, double tail_pct);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// Median time of repeated calls of `fn`: at least 5 calls and 0.5 s, at
// most 2000 calls (one call when `tiny`). Set-up is sub-second, so one
// timing would mostly measure the machine's mood.
[[nodiscard]] double median_time(bool tiny, const std::function<void()>& fn);

// Counter / histogram-sum readers over a registry snapshot.
[[nodiscard]] std::uint64_t counter(const mpleo::obs::MetricsSnapshot& snap,
                                    std::string_view name);
[[nodiscard]] double histogram_sum(const mpleo::obs::MetricsSnapshot& snap,
                                   std::string_view name);
[[nodiscard]] double gauge(const mpleo::obs::MetricsSnapshot& snap, std::string_view name);

// Every terminal-step of the grid is either served or unserved.
[[nodiscard]] bool conserves_time(const mpleo::net::ScheduleResult& result,
                                  std::size_t terminals, const mpleo::orbit::TimeGrid& grid);

// Per-op samples of the scheduler's own "sched." counters, read from a
// registry reset before the op (traced runs only).
struct SchedulerLayers {
  std::vector<double> propagate_s, cull_s, phase1_cpu_s, phase2_s, phase2_share, cores_busy;
  std::vector<double> candidates, links, beam_rejections, grant_ratio;
  std::vector<double> grant_flaps, shed_terminal_steps, failure_forced_detaches;
  double candidate_high_water = 0.0;

  // `run_s` is the op's BentPipeScheduler::run span.
  void add(const mpleo::obs::MetricsSnapshot& snap, double run_s);
  // Medians (counts of policy work: means) as net.* metrics.
  void report_to(Report& report) const;
};

// Provenance every report carries.
void add_provenance(Report& report, const Options& options);

// Workload entry points. Each fills the report; exceptions escaping them
// are setup failures (the run prints no result).
void run_coverage_mc(const Options& options, Tracer& tracer, Report& report);
void run_mega_stream(const Options& options, Tracer& tracer, Report& report);
void run_consortium_sweeps(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
