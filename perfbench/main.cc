// perfbench: lumina-sim's end-to-end and per-layer benchmark (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>]
//
// --trace 0 measures the end-to-end metrics on untraced iterations, with
// times scaled to a reference machine speed (calibrate.h);
// --trace 1 interleaves untraced and traced iterations and reports the
// per-layer metrics. Either way every iteration is checked, and the last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.h"
#include "iteration.h"
#include "spans.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// Every timed run first warms up once; a run has at least this many
// measured iterations even when one iteration outlasts --seconds.
constexpr int kMinIterations = 5;
// setup_s is the median of set-ups timed on their own: a batch after the
// warm-up, then a batch after every iteration so the samples span the
// whole run. The first set-up after an iteration runs on the heap that
// iteration just released, a slower regime, so it is not recorded.
constexpr int kSetupsAfterWarmup = 100;
constexpr int kSetupsPerIteration = 20;
// Untimed calibration runs after the warm-up iteration.
constexpr int kCalibrationWarmups = 3;
// Failure lines printed before the summary.
constexpr std::size_t kMaxFailuresShown = 10;

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"experiment_s", "s"},
    {"wire_pkts_per_s", "1/s"}, {"runs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"config.load_ms", "ms"},
    {"topology.build_ms", "ms"},
    {"topology.build_share", "ratio"},
    {"orchestrator.run_ms", "ms"},
    {"orchestrator.ns_per_event", "ns"},
    {"orchestrator.ns_per_wire_pkt", "ns"},
    {"orchestrator.allocs_per_wire_pkt", "allocs/pkt"},
    {"sim.events", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.queue_depth_max", "count"},
    {"sim.events_per_wire_pkt", "events/pkt"},
    {"injector.roce_rx", "count"},
    {"injector.mirrored", "count"},
    {"injector.table_match", "count"},
    {"injector.dropped_by_event", "count"},
    {"injector.ecn_marked_by_queue", "count"},
    {"injector.max_queued_bytes", "B"},
    {"rnic.tx_packets", "count"},
    {"rnic.retransmitted_packets", "count"},
    {"rnic.retransmit_ratio", "ratio"},
    {"rnic.nacks_sent", "count"},
    {"rnic.timer_fires", "count"},
    {"rnic.cnps_sent", "count"},
    {"host.msgs_completed", "count"},
    {"host.msgs_failed", "count"},
    {"host.mct_us_mean", "us"},
    {"host.sim_completion_us", "us"},
    {"host.goodput_gbps", "Gbit/s"},
    {"dumper.captured", "count"},
    {"dumper.discarded", "count"},
    {"dumper.capture_ratio", "ratio"},
    {"analyzers.trace_stats_ms", "ms"},
    {"analyzers.retrans_ms", "ms"},
    {"analyzers.gbn_ms", "ms"},
    {"analyzers.cnp_ms", "ms"},
    {"analyzers.counters_ms", "ms"},
    {"analyzers.retrans_episodes", "count"},
    {"analyzers.gbn_episodes", "count"},
    {"results_io.write_ms", "ms"},
    {"results_io.bytes", "B"},
    {"campaign.parallel_efficiency", "ratio"},
    {"campaign.longest_run_ms", "ms"},
    {"campaign.run_ms_p50", "ms"},
    {"campaign.run_ms_p90", "ms"},
    {"campaign.kind_ms.experiment", "ms"},
    {"campaign.kind_ms.fuzz", "ms"},
    {"campaign.kind_ms.suite", "ms"},
    {"campaign.write_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string state_dir = ".bench_build/perfbench-state";
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--state-dir <dir>]\nworkloads:",
               argv0);
  for (const auto& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 0);
      have[1] = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have[2] = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have[3] = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;  // a flag without its value
  for (const bool h : have) {
    if (!h) return std::nullopt;
  }
  return args;
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Checks and digests across all iterations of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::size_t, std::uint64_t> digests;  ///< By input.
  std::vector<std::string> failures;

  void add(const IterationResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    const auto [it, first] = digests.emplace(r.input, r.digest);
    if (!first && it->second != r.digest) {
      failures.push_back("digest of input " + std::to_string(r.input) +
                         " differs between iterations");
      if (r.failed == 0) ++failed;
    }
  }
};

/// Sample vectors of one run, keyed by metric name.
using Samples = std::map<std::string, std::vector<double>>;

bool keep_going(Clock::time_point start, double seconds, std::size_t n) {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return elapsed < seconds || n < static_cast<std::size_t>(kMinIterations);
}

/// Host ms of the calibration kernel (calibrate.h) on one thread, and on
/// as many threads as the workload's iterations use.
struct Calibration {
  double one = 0;
  double jobs = 0;
};

Calibration calibrate(const Workload& w) {
  const double one = time_calibration(1);
  return {one, w.jobs == 1 ? one : time_calibration(w.jobs)};
}

/// End-to-end metrics from untraced iterations. Every time is scaled to
/// the reference machine speed by the calibration kernel run on as many
/// threads as the timed code uses: an iteration by the mean of the
/// calibrations just before and just after it, a batch of set-ups, which
/// run on one thread, by the one-thread calibration just before it.
Samples measure_untraced(const Workload& w, double seconds,
                         const std::string& out_dir, Tally& tally) {
  // Warm-up: let caches fill and lazy set-up finish before timing.
  tally.add(run_iteration(w, out_dir, nullptr, -1, w.jobs));
  for (int k = 0; k < kCalibrationWarmups; ++k) calibrate(w);
  Samples s;
  Calibration calibration = calibrate(w);  // The latest.
  const auto time_setups = [&](int n) {
    const double slowdown = calibration.one / kReferenceCalibrationMs;
    time_setup(w);
    for (int k = 0; k < n; ++k) {
      s["setup_s"].push_back(time_setup(w) / 1e3 / slowdown);
    }
  };
  time_setups(kSetupsAfterWarmup);
  const auto start = Clock::now();
  for (long i = 0; keep_going(start, seconds, s["experiment_s"].size()); ++i) {
    const double before = calibration.jobs;
    const IterationResult r = run_iteration(w, out_dir, nullptr, i, w.jobs);
    tally.add(r);
    calibration = calibrate(w);
    s["calibration_ms"].push_back(calibration.jobs);
    const double slowdown =
        (before + calibration.jobs) / 2 / kReferenceCalibrationMs;
    const double total_s = r.times.total / 1e3;
    // The campaign has no single run() to time; its wire rate is over the
    // whole iteration, like runs_per_s.
    const double wire_s =
        w.campaign ? total_s : r.times.orchestrator_run / 1e3;
    s["experiment_s"].push_back(total_s / slowdown);
    s["wire_pkts_per_s"].push_back(r.counts.tx_packets / wire_s * slowdown);
    s["runs_per_s"].push_back(static_cast<double>(r.attempted) / total_s *
                              slowdown);
    time_setups(kSetupsPerIteration);
  }
  s["peak_rss_mb"].push_back(peak_rss_mb());
  return s;
}

/// Per-layer metrics from traced iterations, interleaved with untraced
/// ones that give the tracing overhead (and, for the campaign, the
/// parallel-run figures).
Samples measure_traced(const Workload& w, double seconds,
                       const std::string& out_dir, SpanLog& log,
                       Tally& tally) {
  tally.add(run_iteration(w, out_dir, nullptr, -1, w.jobs));  // warm-up
  std::vector<IterationResult> traced;
  std::vector<double> untraced_ms;
  Samples s;
  const auto start = Clock::now();
  for (long i = 0; keep_going(start, seconds, traced.size()); ++i) {
    const IterationResult plain = run_iteration(w, out_dir, nullptr, i, w.jobs);
    tally.add(plain);
    if (w.campaign) {
      const LayerTimes& t = plain.times;
      s["campaign.parallel_efficiency"].push_back(
          t.worker_ms / (w.jobs * t.orchestrator_run));
      s["campaign.longest_run_ms"].push_back(quantile(t.run_ms, 1.0));
      s["campaign.run_ms_p50"].push_back(quantile(t.run_ms, 0.5));
      s["campaign.run_ms_p90"].push_back(quantile(t.run_ms, 0.9));
      // The traced campaign runs its specs one at a time, so its
      // untraced reference is the same campaign at one job.
      const IterationResult one_job = run_iteration(w, out_dir, nullptr, i, 1);
      tally.add(one_job);
      untraced_ms.push_back(one_job.times.total);
    } else {
      untraced_ms.push_back(plain.times.total);
    }
    traced.push_back(run_iteration(w, out_dir, &log, i, w.jobs));
    tally.add(traced.back());
  }

  std::vector<double> traced_ms;
  std::map<std::size_t, std::map<std::string, double>> counts;  // By input.
  for (const IterationResult& r : traced) {
    const LayerTimes& t = r.times;
    traced_ms.push_back(t.total);
    s["config.load_ms"].push_back(t.config_load);
    s["topology.build_ms"].push_back(t.topology_build);
    s["topology.build_share"].push_back(
        t.topology_build / (t.topology_build + t.orchestrator_run));
    s["orchestrator.run_ms"].push_back(t.orchestrator_run);
    s["orchestrator.ns_per_event"].push_back(t.orchestrator_run * 1e6 /
                                             r.counts.sim_events);
    s["orchestrator.ns_per_wire_pkt"].push_back(t.orchestrator_run * 1e6 /
                                                r.counts.tx_packets);
    s["orchestrator.allocs_per_wire_pkt"].push_back(
        static_cast<double>(r.allocs) / r.counts.tx_packets);
    s["analyzers.trace_stats_ms"].push_back(t.trace_stats);
    s["analyzers.retrans_ms"].push_back(t.retrans);
    s["analyzers.gbn_ms"].push_back(t.gbn);
    s["analyzers.cnp_ms"].push_back(t.cnp);
    s["analyzers.counters_ms"].push_back(t.counters);
    s["results_io.write_ms"].push_back(t.write);
    const auto kind = [&](const char* name) {
      const auto it = t.kind_ms.find(name);
      return it == t.kind_ms.end() ? 0.0 : it->second;
    };
    s["campaign.kind_ms.experiment"].push_back(kind("experiment"));
    s["campaign.kind_ms.fuzz"].push_back(kind("fuzz"));
    s["campaign.kind_ms.suite"].push_back(kind("suite"));
    s["campaign.write_ms"].push_back(w.campaign ? t.write : 0.0);
    const auto [it, first] = counts.emplace(r.input, r.counts.to_metrics());
    if (!first && it->second != r.counts.to_metrics()) {
      tally.failures.push_back("per-layer counts of input " +
                               std::to_string(r.input) +
                               " differ between iterations");
      ++tally.failed;
    }
  }
  // Counts are reported for input 0, which every run measures.
  for (const auto& [name, value] : counts.at(0)) s[name].push_back(value);
  s["trace.overhead_frac"].push_back(median(traced_ms) / median(untraced_ms) -
                                     1.0);
  return s;
}

/// Records this run's digest of each input for (workload, seed, binary)
/// and compares it with an earlier run's. False when an earlier run of the
/// same binary and seed produced a different digest for an input.
bool digests_match_earlier(
    const Args& args, const char* argv0,
    const std::map<std::size_t, std::uint64_t>& digests) {
  std::error_code size_ec;
  std::error_code time_ec;
  const fs::path exe(argv0);
  const auto size = fs::file_size(exe, size_ec);
  const auto mtime = fs::last_write_time(exe, time_ec);
  if (size_ec || time_ec) return true;  // no binary identity to key on
  const std::string binary =
      std::to_string(size) + "-" +
      std::to_string(mtime.time_since_epoch().count()) + " ";
  const fs::path dir = fs::path(args.state_dir) / "digests";
  std::error_code ec;
  fs::create_directories(dir, ec);
  bool match = true;
  for (const auto& [input, digest] : digests) {
    const fs::path file = dir / (args.workload + "-seed" +
                                 std::to_string(args.seed) + "-input" +
                                 std::to_string(input));
    const std::string mine = binary + std::to_string(digest);
    std::string earlier;
    if (std::ifstream in(file); in) std::getline(in, earlier);
    if (earlier.rfind(binary, 0) == 0) {
      match = match && earlier == mine;
    } else {
      std::ofstream(file) << mine << "\n";
    }
  }
  return match;
}

void print_self_times(const SpanLog& log) {
  std::printf("\nspan self time (ms)\n%-28s %6s %10s %12s\n", "span", "n",
              "median", "total");
  for (const auto& [name, self] : log.self_ms_by_name()) {
    double total = 0;
    for (const double v : self) total += v;
    std::printf("%-28s %6zu %10.3f %12.3f\n", name.c_str(), self.size(),
                median(self), total);
  }
}

void print_json(const Tally& tally, bool correct, const Samples& samples,
                bool trace) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = samples.find(def.name);
    double value = it == samples.end() ? 0.0 : median(it->second);
    if (!std::isfinite(value)) value = 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    usage(argv[0]);
    return 2;
  }
  const std::optional<Workload> workload =
      make_workload(args->workload, args->seed);
  if (!workload) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args->workload.c_str());
    usage(argv[0]);
    return 2;
  }
  const Workload& w = *workload;
  const fs::path work_dir = fs::path(args->state_dir) / "work" /
                            (w.name + "-" + std::to_string(getpid()));
  const std::string out_dir = (work_dir / "out").string();

  Tally tally;
  Samples samples;
  SpanLog log;
  try {
    samples = args->trace
                  ? measure_traced(w, args->seconds, out_dir, log, tally)
                  : measure_untraced(w, args->seconds, out_dir, tally);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::error_code ec;
    fs::remove_all(work_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(work_dir, ec);

  std::printf("perfbench %s seed %llu trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args->seed), args->trace ? 1 : 0);
  std::printf("%-36s %14s %14s %14s %5s\n", "metric", "p25", "median", "p75",
              "n");
  for (const auto& [name, v] : samples) {
    std::printf("%-36s %14.6g %14.6g %14.6g %5zu\n", name.c_str(),
                quantile(v, 0.25), median(v), quantile(v, 0.75), v.size());
  }
  if (args->trace) {
    print_self_times(log);
    const fs::path spans_dir = fs::path(args->state_dir) / "spans";
    fs::create_directories(spans_dir, ec);
    const fs::path spans_file =
        spans_dir / (w.name + "-seed" + std::to_string(args->seed) + ".json");
    if (log.write_chrome_json(spans_file.string())) {
      std::printf("spans written to %s\n", spans_file.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", spans_file.c_str());
    }
  }

  if (!digests_match_earlier(*args, argv[0], tally.digests)) {
    tally.failures.push_back("digest differs from an earlier run of this seed");
    tally.failed = std::max<std::uint64_t>(tally.failed, 1);
  }
  const std::size_t shown = std::min(tally.failures.size(), kMaxFailuresShown);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("FAILED: %s\n", tally.failures[i].c_str());
  }
  for (const auto& [input, digest] : tally.digests) {
    std::printf("input %zu digest %016llx\n", input,
                static_cast<unsigned long long>(digest));
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  const bool correct = tally.failures.empty();
  print_json(tally, correct, samples, args->trace);
  return correct ? 0 : 1;
}
