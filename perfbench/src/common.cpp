#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "orbit/simd.hpp"

namespace perfbench {
namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  out += mpleo::obs::json_escape(text);
  out += '"';
  return out;
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t pool_threads() { return std::min<std::size_t>(4, hardware_threads()); }

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope Tracer::span(std::string_view name) {
  if (!enabled_) return {};
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.op = op_;
  span.start_s = now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return {this, spans_.size() - 1};
}

void Tracer::Scope::close() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_);
  tracer_ = nullptr;
}

void Tracer::close(std::size_t id) {
  spans_[id].end_s = now();
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s >= 0.0) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"start_s\": " << number(s.start_s) << ", \"end_s\": " << number(s.end_s)
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- Report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::info(const std::string& key, const std::string& json_value) {
  info_[key] = json_value;
}

void Report::info_text(const std::string& key, const std::string& text) {
  info_[key] = quoted(text);
}

void Report::info_number(const std::string& key, double value) { info_[key] = number(value); }

void Report::check(const std::string& name, bool ok) {
  ops(1, ok ? 0 : 1);
  checks_.emplace_back(name, ok);
  if (!ok) std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << number(entry.first)
       << ", \"unit\": " << quoted(entry.second) << "}";
    first = false;
  }
  os << "}, \"checks\": {";
  first = true;
  for (const auto& [name, ok] : checks_) {
    os << (first ? "" : ", ") << quoted(name) << ": " << (ok ? "true" : "false");
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ", ") << quoted(key) << ": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void report_op_latency(Report& report, std::vector<double> op_seconds, double tail_pct) {
  const double n = static_cast<double>(op_seconds.size());
  report.metric("op_p50_s", median(op_seconds), "s");
  report.metric("op_tail_s", percentile(op_seconds, tail_pct), "s");
  report.info_number("op_count", n);
  report.info_number("op_tail_percentile", tail_pct);
  // Nearest rank: the ops strictly after the one percentile() returns.
  report.info_number("ops_beyond_tail", n - std::max(std::ceil(tail_pct / 100.0 * n), 1.0));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median_time(bool tiny, const std::function<void()>& fn) {
  std::vector<double> times;
  double total = 0.0;
  while (times.empty() || (!tiny && times.size() < 2000 && (times.size() < 5 || total < 0.5))) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  return median(times);
}

std::uint64_t counter(const mpleo::obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

double histogram_sum(const mpleo::obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.histograms) {
    if (key == name) return value.sum;
  }
  return 0.0;
}

double gauge(const mpleo::obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return value;
  }
  return 0.0;
}

bool conserves_time(const mpleo::net::ScheduleResult& result, std::size_t terminals,
                    const mpleo::orbit::TimeGrid& grid) {
  const double want = static_cast<double>(terminals) * grid.duration_seconds();
  return std::abs(result.total_served_seconds + result.total_unserved_seconds - want) <=
         1e-9 * want;
}

void SchedulerLayers::add(const mpleo::obs::MetricsSnapshot& snap, double run_s) {
  const double prop = histogram_sum(snap, "sched.propagate_seconds");
  const double cull = histogram_sum(snap, "sched.cull_seconds");
  const double p1 = histogram_sum(snap, "sched.phase1_chunk_seconds");
  const double p2 = histogram_sum(snap, "sched.phase2_drain_seconds");
  const double cands = static_cast<double>(counter(snap, "sched.candidates"));
  const double granted = static_cast<double>(counter(snap, "sched.links_granted"));
  propagate_s.push_back(prop);
  cull_s.push_back(cull);
  phase1_cpu_s.push_back(p1);
  phase2_s.push_back(p2);
  phase2_share.push_back(p2 / run_s);
  cores_busy.push_back((prop + cull + p1 + p2) / run_s);
  candidates.push_back(cands);
  links.push_back(granted);
  beam_rejections.push_back(static_cast<double>(counter(snap, "sched.beam_rejections")));
  grant_ratio.push_back(cands > 0 ? granted / cands : 0.0);
  grant_flaps.push_back(static_cast<double>(counter(snap, "sched.grant_flaps")));
  shed_terminal_steps.push_back(static_cast<double>(counter(snap, "sched.shed_terminal_steps")));
  failure_forced_detaches.push_back(
      static_cast<double>(counter(snap, "sched.failure_forced_detaches")));
  candidate_high_water = std::max(candidate_high_water, gauge(snap, "sched.candidate_high_water"));
}

void SchedulerLayers::report_to(Report& report) const {
  report.metric("net.propagate_s", median(propagate_s), "s");
  report.metric("net.cull_s", median(cull_s), "s");
  report.metric("net.phase1_cpu_s", median(phase1_cpu_s), "s");
  report.metric("net.phase2_s", median(phase2_s), "s");
  report.metric("net.phase2_share", median(phase2_share), "ratio");
  report.metric("net.cores_busy", median(cores_busy), "cores");
  report.metric("net.candidates", median(candidates), "count");
  report.metric("net.links_granted", median(links), "count");
  report.metric("net.beam_rejections", median(beam_rejections), "count");
  report.metric("net.grant_ratio", median(grant_ratio), "ratio");
  report.metric("net.candidate_high_water", candidate_high_water, "count");
  report.metric("net.grant_flaps", mean(grant_flaps), "count");
  report.metric("net.shed_terminal_steps", mean(shed_terminal_steps), "count");
  report.metric("net.failure_forced_detaches", mean(failure_forced_detaches), "count");
}

void add_provenance(Report& report, const Options& options) {
  report.info_text("workload", options.workload);
  report.info_number("seed", static_cast<double>(options.seed));
  report.info_number("seconds", options.seconds);
  report.info("trace", options.trace ? "true" : "false");
  report.info("tiny", options.tiny ? "true" : "false");
  report.info_text("git_sha", options.git_sha);
  report.info_text("source_digest", options.source_digest);
  report.info_text("compiler", PERFBENCH_COMPILER);
  report.info_text("build_type", PERFBENCH_BUILD_TYPE);
  report.info_text("simd_mode", mpleo::orbit::to_string(mpleo::orbit::active_simd_mode()));
  report.info_number("nproc", static_cast<double>(hardware_threads()));
}

}  // namespace perfbench
