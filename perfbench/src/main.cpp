// mpleo_perfbench: runs one benchmark workload in this process and prints a
// one-line JSON report (metrics with units, op and check counts,
// provenance). run.py builds it, runs it once per invocation and turns the
// report into the benchmark's result line.
//
//   mpleo_perfbench --workload coverage-mc|mega-stream|consortium-sweeps
//                   --seed N --seconds S [--trace 0|1] [--tiny]
//                   [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "mpleo_perfbench: %s\n"
               "usage: mpleo_perfbench --workload coverage-mc|mega-stream|consortium-sweeps "
               "--seed N --seconds S [--trace 0|1] [--tiny] [--out-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               message);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0) || options.seconds > 3600.0) {
    usage("--seconds must be in (0, 3600]");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Rounds free and re-allocate large mask and candidate working sets; keep
  // glibc from returning those pages to the OS each time, as the repo's own
  // benches do, so the loop does not mostly time page faults.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
  const perfbench::Options options = parse(argc, argv);
  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  perfbench::add_provenance(report, options);
  try {
    if (options.workload == "coverage-mc") {
      perfbench::run_coverage_mc(options, tracer, report);
    } else if (options.workload == "mega-stream") {
      perfbench::run_mega_stream(options, tracer, report);
    } else if (options.workload == "consortium-sweeps") {
      perfbench::run_consortium_sweeps(options, tracer, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    if (options.trace) {
      const std::string path = options.out_dir + "/spans-" + options.workload + "-seed" +
                               std::to_string(options.seed) + ".json";
      tracer.write_json(path);
      report.info_text("span_file", path);
      report.metric("trace.spans", static_cast<double>(tracer.size()), "count");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpleo_perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
