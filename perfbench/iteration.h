// One benchmark iteration: the calls a user's turnaround is made of, each
// timed from outside through the layer's public entry point, plus the
// deterministic counts the library already exposes and the correctness
// checks every iteration must pass.
//
//   single run  = what `lumina_run <cfg> <dir>` does: load the YAML,
//                 construct the Orchestrator, run(), the five analyzers,
//                 write_results.
//   campaign    = load + expand the campaign YAML, run_campaign (or, when
//                 traced, every spec's entry point sequentially), then
//                 write_campaign_artifacts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Deterministic per-layer counts, summed over the experiment runs of an
/// iteration. Ratios are derived in to_metrics() so that sums stay exact.
struct LayerCounts {
  double sim_events = 0;
  double sim_events_cancelled = 0;
  double sim_queue_depth_max = 0;  ///< Max over runs.
  double roce_rx = 0;
  double mirrored = 0;
  double table_match = 0;
  double dropped_by_event = 0;
  double ecn_marked_by_queue = 0;
  double max_queued_bytes = 0;  ///< Max over switch ports and runs.
  double tx_packets = 0;
  double retransmitted_packets = 0;
  double nacks_sent = 0;
  double timer_fires = 0;
  double cnps_sent = 0;
  double msgs_completed = 0;
  double msgs_failed = 0;  ///< Failed completions plus messages never done.
  double mct_us_sum = 0;
  double sim_completion_ns = 0;  ///< Σ per-run (last completion - first post).
  double goodput_bytes = 0;
  double dumper_received = 0;
  double dumper_captured = 0;
  double dumper_discarded = 0;
  double retrans_episodes = 0;
  double gbn_episodes = 0;
  double results_bytes = 0;

  LayerCounts& operator+=(const LayerCounts& o);
  /// Per-layer metric name -> value (sim.*, injector.*, rnic.*, host.*,
  /// dumper.*, analyzers.*_episodes, results_io.bytes).
  std::map<std::string, double> to_metrics() const;
};

/// Host wall time of each layer call in one iteration, in ms. Layers an
/// iteration does not call stay 0.
struct LayerTimes {
  double total = 0;  ///< The whole iteration (experiment_s).
  double config_load = 0;
  double topology_build = 0;  ///< Σ Orchestrator construction.
  double orchestrator_run = 0;  ///< Σ Orchestrator::run / run_campaign.
  double trace_stats = 0;
  double retrans = 0;
  double gbn = 0;
  double cnp = 0;
  double counters = 0;
  double write = 0;  ///< write_results / write_campaign_artifacts.
  std::map<std::string, double> kind_ms;  ///< Traced campaign, per run kind.
  std::vector<double> run_ms;  ///< Campaign: per-run wall (spec order).
  double worker_ms = 0;        ///< Campaign: Σ per-run wall.
};

struct IterationResult {
  std::size_t input = 0;  ///< Index into Workload::seeds.
  LayerTimes times;
  LayerCounts counts;
  std::uint64_t allocs = 0;  ///< Heap allocations inside run() (traced only).
  std::uint64_t digest = 0;  ///< Trace, counters and outcomes; see README.
  std::uint64_t attempted = 0;  ///< 1 per single run; 1 per campaign run.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< One line per failed check.
};

/// Runs iteration `id` of `w` on input `id % w.seeds.size()`, writing
/// artifacts into `out_dir` over the previous iteration's. With a span log the iteration is traced: spans
/// around every layer call, heap allocations counted inside run(), and a
/// campaign executes its specs sequentially. `jobs` overrides the
/// campaign's worker count.
IterationResult run_iteration(const Workload& w, const std::string& out_dir,
                              SpanLog* log, long id, int jobs);

/// Setup only: config text to a constructed Orchestrator (single run) or
/// an expanded Campaign. Returns host ms.
double time_setup(const Workload& w);

}  // namespace perfbench
