#include "iteration.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "alloc_count.h"
#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "analyzers/gbn_fsm.h"
#include "analyzers/retrans_perf.h"
#include "analyzers/trace_stats.h"
#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "config/test_config.h"
#include "fuzz/targets.h"
#include "orchestrator/results_io.h"
#include "suite/bug_detectors.h"

namespace perfbench {
namespace {

using lumina::TestResult;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Times `fn` in host ms; records a span named `name` when tracing.
template <typename Fn>
double timed(SpanLog* log, const char* name, long id, Fn&& fn) {
  const int span = log != nullptr ? log->begin(name, id) : -1;
  const auto t0 = Clock::now();
  fn();
  const double ms = ms_since(t0);
  if (log != nullptr) log->end(span);
  return ms;
}

/// FNV-1a, the hash the campaign layer uses for its per-run seeds.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) hash_ = (hash_ ^ p[i]) * kPrime;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Everything deterministic in a TestResult: the reconstructed trace, the
/// integrity verdict, NIC and switch counters, per-message records and the
/// telemetry counters and gauges.
void digest_result(const TestResult& r, Digest& d) {
  d.u64(r.trace.size());
  for (const auto& p : r.trace) {
    d.u64(p.pkt.bytes.size());
    d.bytes(p.pkt.bytes.data(), p.pkt.bytes.size());
    d.u64(p.meta.mirror_seq);
    d.i64(p.meta.ingress_timestamp);
    d.u64(p.orig_len);
    d.i64(p.released_at);
  }
  d.str(r.integrity.to_string());
  for (const auto& host : r.host_counters) {
    for (const auto& [name, value] : host.entries()) d.u64(value);
  }
  const auto& sw = r.switch_counters;
  for (const std::uint64_t v : {sw.roce_rx, sw.roce_tx, sw.mirrored,
                                sw.events_applied, sw.dropped_by_event,
                                sw.ecn_marked_by_queue}) {
    d.u64(v);
  }
  for (const auto& flow : r.flows) {
    for (const auto& m : flow.messages) {
      d.i64(m.posted_at);
      d.i64(m.completed_at);
      d.u64(static_cast<std::uint64_t>(m.status));
    }
  }
  for (const auto& [name, value] : r.telemetry.counters) {
    d.str(name);
    d.u64(value);
  }
  for (const auto& [name, value] : r.telemetry.gauges) {
    d.str(name);
    d.i64(value);
  }
  d.u64(r.finished ? 1 : 0);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Counts of one finished run, read from the TestResult, its telemetry
/// snapshot and the dumpers.
LayerCounts run_counts(lumina::Orchestrator& orch, const TestResult& r) {
  LayerCounts c;
  const auto counter = [&r](const char* name) {
    const auto it = r.telemetry.counters.find(name);
    return it == r.telemetry.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  c.sim_events = counter("sim.events_processed");
  c.sim_events_cancelled = counter("sim.events_cancelled");
  c.table_match = counter("injector.table_match");
  for (const auto& [name, value] : r.telemetry.gauges) {
    if (name == "sim.queue_depth_max") {
      c.sim_queue_depth_max = static_cast<double>(value);
    } else if (name.rfind("injector.port", 0) == 0 &&
               ends_with(name, ".max_queued_bytes")) {
      c.max_queued_bytes =
          std::max(c.max_queued_bytes, static_cast<double>(value));
    }
  }
  for (const auto& [name, value] : r.telemetry.counters) {
    if (name.rfind("rnic.", 0) != 0) continue;
    const auto v = static_cast<double>(value);
    if (ends_with(name, ".nacks_sent")) c.nacks_sent += v;
    if (ends_with(name, ".timer_fires")) c.timer_fires += v;
    if (ends_with(name, ".cnps_sent")) c.cnps_sent += v;
  }
  c.roce_rx = static_cast<double>(r.switch_counters.roce_rx);
  c.mirrored = static_cast<double>(r.switch_counters.mirrored);
  c.dropped_by_event = static_cast<double>(r.switch_counters.dropped_by_event);
  c.ecn_marked_by_queue =
      static_cast<double>(r.switch_counters.ecn_marked_by_queue);
  for (const auto& host : r.host_counters) {
    c.tx_packets += static_cast<double>(host.tx_packets);
    c.retransmitted_packets += static_cast<double>(host.retransmitted_packets);
  }
  // Simulated time comes from the flows: TestResult::duration is always the
  // run's deadline, because the kernel advances its clock to it.
  lumina::Tick first_post = r.flows.empty() ? 0 : r.flows[0].first_post;
  lumina::Tick last_completion = first_post;
  for (const auto& flow : r.flows) {
    first_post = std::min(first_post, flow.first_post);
    last_completion = std::max(last_completion, flow.last_completion);
    for (const auto& m : flow.messages) {
      if (m.completed_at < 0 || m.status != lumina::WcStatus::kSuccess) {
        c.msgs_failed += 1;
        continue;
      }
      c.msgs_completed += 1;
      c.mct_us_sum += lumina::to_us(m.completion_time());
      c.goodput_bytes += static_cast<double>(flow.message_size);
    }
  }
  c.sim_completion_ns = static_cast<double>(last_completion - first_post);
  for (const auto& dumper : orch.dumpers()) {
    c.dumper_received += static_cast<double>(dumper->counters().received);
    c.dumper_captured += static_cast<double>(dumper->counters().captured);
    c.dumper_discarded += static_cast<double>(dumper->counters().discarded);
  }
  return c;
}

/// Checks every experiment run must pass; appends one line per failure.
void check_run(const std::string& label, const lumina::TestConfig& cfg,
               const TestResult& r, const LayerCounts& c,
               std::vector<std::string>& failures) {
  const double expected_msgs = static_cast<double>(r.flows.size()) *
                               cfg.traffic.num_msgs_per_qp;
  if (!r.integrity.ok()) {
    failures.push_back(label + ": integrity " + r.integrity.to_string());
  }
  if (!r.finished) failures.push_back(label + ": traffic did not finish");
  if (c.msgs_failed != 0 || c.msgs_completed != expected_msgs) {
    failures.push_back(label + ": " + std::to_string(c.msgs_completed) +
                       " of " + std::to_string(expected_msgs) +
                       " messages completed, " +
                       std::to_string(c.msgs_failed) + " failed");
  }
}

double directory_bytes(const std::string& dir) {
  double total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += static_cast<double>(entry.file_size());
    }
  }
  return total;
}

IterationResult run_single(const Workload& w, std::uint64_t seed,
                           const std::string& out_dir, SpanLog* log, long id) {
  IterationResult out;
  LayerTimes& t = out.times;
  const int root = log != nullptr ? log->begin("iteration", id) : -1;
  const auto t0 = Clock::now();

  lumina::TestConfig cfg;
  t.config_load = timed(log, "config.load", id, [&] {
    cfg = lumina::load_test_config(lumina::parse_yaml(w.yaml));
  });
  lumina::Orchestrator::Options options = w.options;
  options.seed = seed;
  std::optional<lumina::Orchestrator> orch;
  t.topology_build = timed(log, "topology.build", id,
                           [&] { orch.emplace(cfg, options); });

  const TestResult* result = nullptr;
  const std::uint64_t allocs_before = alloc_count();
  set_alloc_counting(log != nullptr);
  t.orchestrator_run =
      timed(log, "orchestrator.run", id, [&] { result = &orch->run(); });
  set_alloc_counting(false);
  out.allocs = alloc_count() - allocs_before;
  const TestResult& r = *result;

  // The five analyzers, called as lumina_run calls them.
  std::size_t retrans_episodes = 0;
  bool gbn_ok = false;
  std::size_t gbn_episodes = 0;
  t.trace_stats = timed(log, "analyzers.trace_stats", id, [&] {
    (void)lumina::compute_trace_stats(r.trace);
  });
  t.retrans = timed(log, "analyzers.retrans", id, [&] {
    retrans_episodes = lumina::analyze_retransmissions(r.trace, r.verb).size();
  });
  t.gbn = timed(log, "analyzers.gbn", id, [&] {
    const auto gbn = lumina::check_gbn_compliance(r.trace, r.verb);
    gbn_ok = gbn.compliant();
    gbn_episodes = gbn.episodes_seen;
  });
  t.cnp = timed(log, "analyzers.cnp", id,
                [&] { (void)lumina::analyze_cnps(r.trace); });
  t.counters = timed(log, "analyzers.counters", id, [&] {
    std::vector<lumina::HostCountersView> views(r.host_counters.size());
    for (std::size_t h = 0; h < views.size(); ++h) {
      views[h].counters = r.host_counters[h];
    }
    std::vector<std::pair<int, int>> connection_hosts;
    for (const auto& c : r.connections) {
      connection_hosts.emplace_back(c.src_host, c.dst_host);
      const auto add_ip = [&](int host, lumina::Ipv4Address ip) {
        if (host < 0 || static_cast<std::size_t>(host) >= views.size()) return;
        auto& ips = views[host].ips;
        if (std::find(ips.begin(), ips.end(), ip) == ips.end()) {
          ips.push_back(ip);
        }
      };
      add_ip(c.src_host, c.requester.ip);
      add_ip(c.dst_host, c.responder.ip);
    }
    (void)lumina::check_counters_hosts(r.trace, r.verb, views,
                                       connection_hosts);
  });

  bool wrote = false;
  std::string failed_path;
  t.write = timed(log, "results_io.write", id, [&] {
    wrote = lumina::write_results(r, out_dir, &failed_path);
  });
  t.total = ms_since(t0);
  if (log != nullptr) log->end(root);

  // Untimed: counts, checks and the digest.
  out.counts = run_counts(*orch, r);
  out.counts.retrans_episodes = static_cast<double>(retrans_episodes);
  out.counts.gbn_episodes = static_cast<double>(gbn_episodes);
  if (wrote) out.counts.results_bytes = directory_bytes(out_dir);
  out.attempted = 1;
  const std::string label = w.name + " iteration " + std::to_string(id);
  check_run(label, cfg, r, out.counts, out.failures);
  if (!gbn_ok) out.failures.push_back(label + ": GBN non-compliant");
  if (!wrote) out.failures.push_back(label + ": cannot write " + failed_path);
  if (w.episodes_match_drops &&
      out.counts.retrans_episodes != out.counts.dropped_by_event) {
    out.failures.push_back(
        label + ": " + std::to_string(retrans_episodes) +
        " retransmission episodes for " +
        std::to_string(out.counts.dropped_by_event) + " injected drops");
  }
  out.failed = out.failures.empty() ? 0 : 1;
  Digest d;
  digest_result(r, d);
  out.digest = d.value();
  return out;
}

/// The traced campaign: every spec's public entry point, called in spec
/// order with the seed run_campaign would derive for it.
lumina::CampaignReport run_specs_traced(const lumina::Campaign& campaign,
                                        std::uint64_t seed, SpanLog* log,
                                        IterationResult& out) {
  lumina::CampaignReport report;
  report.name = campaign.name;
  report.seed = seed;
  for (std::size_t i = 0; i < campaign.runs.size(); ++i) {
    const lumina::CampaignRunSpec& spec = campaign.runs[i];
    const long id = static_cast<long>(i);
    lumina::CampaignRunOutcome run;
    run.name = spec.name;
    run.kind = spec.kind;
    run.seed = lumina::derive_run_seed(seed, i);
    const double wall = timed(log, "campaign.run", id, [&] {
      switch (spec.kind) {
        case lumina::CampaignRunKind::kExperiment: {
          lumina::Orchestrator::Options options;
          options.seed = run.seed;
          std::optional<lumina::Orchestrator> orch;
          out.times.topology_build += timed(log, "topology.build", id, [&] {
            orch.emplace(spec.config, options);
          });
          const std::uint64_t allocs_before = alloc_count();
          set_alloc_counting(true);
          out.times.orchestrator_run += timed(log, "orchestrator.run", id, [&] {
            run.result = orch->run();
          });
          set_alloc_counting(false);
          out.allocs += alloc_count() - allocs_before;
          run.ok = run.result->integrity.ok() && run.result->finished;
          out.counts += run_counts(*orch, *run.result);
          break;
        }
        case lumina::CampaignRunKind::kSuite:
          timed(log, "suite.detect_issue", id, [&] {
            run.detection = lumina::detect_issue(spec.issue, spec.nic);
          });
          break;
        case lumina::CampaignRunKind::kFuzz:
          timed(log, "fuzz.shard", id, [&] {
            const auto target = lumina::make_fuzz_target(spec.fuzz_target,
                                                         spec.nic);
            if (!target) {
              run.ok = false;
              return;
            }
            lumina::GeneticFuzzer::Options options = spec.fuzz_options;
            options.seed = run.seed;
            run.fuzz = lumina::GeneticFuzzer(*target, options).run();
          });
          break;
      }
    });
    run.metrics.wall_ms = wall;
    out.times.kind_ms[lumina::to_string(spec.kind)] += wall;
    report.runs.push_back(std::move(run));
  }
  return report;
}

IterationResult run_campaign_iteration(const Workload& w, std::uint64_t seed,
                                       const std::string& out_dir,
                                       SpanLog* log, long id, int jobs) {
  IterationResult out;
  LayerTimes& t = out.times;
  const int root = log != nullptr ? log->begin("campaign", id) : -1;
  const auto t0 = Clock::now();

  lumina::Campaign campaign;
  t.config_load = timed(log, "config.load", id, [&] {
    campaign = lumina::load_campaign(lumina::parse_yaml(w.yaml));
  });

  lumina::CampaignReport report;
  if (log != nullptr) {
    report = run_specs_traced(campaign, seed, log, out);
  } else {
    lumina::CampaignOptions options;
    options.jobs = jobs;
    options.seed = seed;
    t.orchestrator_run = timed(log, "campaign.run_campaign", id, [&] {
      report = lumina::run_campaign(campaign, options);
    });
  }
  bool wrote = false;
  std::string failed_path;
  t.write = timed(log, "campaign.write", id, [&] {
    wrote = lumina::write_campaign_artifacts(report, out_dir, &failed_path);
  });
  t.total = ms_since(t0);
  if (log != nullptr) log->end(root);

  Digest d;
  out.attempted = report.runs.size();
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const lumina::CampaignRunOutcome& run = report.runs[i];
    t.run_ms.push_back(run.metrics.wall_ms);
    t.worker_ms += run.metrics.wall_ms;
    const std::string label = w.name + " run " + std::to_string(i) + " (" +
                              run.name + ")";
    const std::size_t failures_before = out.failures.size();
    if (!run.ok) out.failures.push_back(label + ": not ok");
    d.str(run.name);
    d.u64(run.seed);
    d.u64(run.ok ? 1 : 0);
    if (run.result.has_value()) {
      if (log == nullptr) {
        // Traced runs already counted every layer with the Orchestrator at
        // hand; run_campaign leaves only the result, enough for
        // wire_pkts_per_s.
        for (const auto& host : run.result->host_counters) {
          out.counts.tx_packets += static_cast<double>(host.tx_packets);
        }
      }
      LayerCounts msgs;
      for (const auto& flow : run.result->flows) {
        for (const auto& m : flow.messages) {
          const bool ok =
              m.completed_at >= 0 && m.status == lumina::WcStatus::kSuccess;
          (ok ? msgs.msgs_completed : msgs.msgs_failed) += 1;
        }
      }
      check_run(label, campaign.runs[i].config, *run.result, msgs,
                out.failures);
      digest_result(*run.result, d);
    }
    if (run.detection.has_value()) {
      d.u64(run.detection->affected ? 1 : 0);
      d.str(run.detection->evidence);
    }
    if (run.fuzz.has_value()) {
      d.u64(static_cast<std::uint64_t>(run.fuzz->iterations));
      d.u64(run.fuzz->anomaly.has_value() ? 1 : 0);
      for (const auto& it : run.fuzz->history) d.f64(it.score);
    }
    if (out.failures.size() > failures_before) ++out.failed;
  }
  if (wrote) {
    out.counts.results_bytes = directory_bytes(out_dir);
  } else {
    out.failures.push_back(w.name + ": cannot write " + failed_path);
    out.failed = std::max<std::uint64_t>(out.failed, 1);
  }
  out.digest = d.value();
  return out;
}

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  sim_events += o.sim_events;
  sim_events_cancelled += o.sim_events_cancelled;
  sim_queue_depth_max = std::max(sim_queue_depth_max, o.sim_queue_depth_max);
  roce_rx += o.roce_rx;
  mirrored += o.mirrored;
  table_match += o.table_match;
  dropped_by_event += o.dropped_by_event;
  ecn_marked_by_queue += o.ecn_marked_by_queue;
  max_queued_bytes = std::max(max_queued_bytes, o.max_queued_bytes);
  tx_packets += o.tx_packets;
  retransmitted_packets += o.retransmitted_packets;
  nacks_sent += o.nacks_sent;
  timer_fires += o.timer_fires;
  cnps_sent += o.cnps_sent;
  msgs_completed += o.msgs_completed;
  msgs_failed += o.msgs_failed;
  mct_us_sum += o.mct_us_sum;
  sim_completion_ns += o.sim_completion_ns;
  goodput_bytes += o.goodput_bytes;
  dumper_received += o.dumper_received;
  dumper_captured += o.dumper_captured;
  dumper_discarded += o.dumper_discarded;
  retrans_episodes += o.retrans_episodes;
  gbn_episodes += o.gbn_episodes;
  results_bytes += o.results_bytes;
  return *this;
}

std::map<std::string, double> LayerCounts::to_metrics() const {
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  return {
      {"sim.events", sim_events},
      {"sim.events_cancelled", sim_events_cancelled},
      {"sim.queue_depth_max", sim_queue_depth_max},
      {"sim.events_per_wire_pkt", ratio(sim_events, tx_packets)},
      {"injector.roce_rx", roce_rx},
      {"injector.mirrored", mirrored},
      {"injector.table_match", table_match},
      {"injector.dropped_by_event", dropped_by_event},
      {"injector.ecn_marked_by_queue", ecn_marked_by_queue},
      {"injector.max_queued_bytes", max_queued_bytes},
      {"rnic.tx_packets", tx_packets},
      {"rnic.retransmitted_packets", retransmitted_packets},
      {"rnic.retransmit_ratio", ratio(retransmitted_packets, tx_packets)},
      {"rnic.nacks_sent", nacks_sent},
      {"rnic.timer_fires", timer_fires},
      {"rnic.cnps_sent", cnps_sent},
      {"host.msgs_completed", msgs_completed},
      {"host.msgs_failed", msgs_failed},
      {"host.mct_us_mean", ratio(mct_us_sum, msgs_completed)},
      {"host.sim_completion_us", sim_completion_ns / 1e3},
      // bytes * 8 / ns = Gbit/s.
      {"host.goodput_gbps", ratio(goodput_bytes * 8, sim_completion_ns)},
      {"dumper.captured", dumper_captured},
      {"dumper.discarded", dumper_discarded},
      {"dumper.capture_ratio", ratio(dumper_captured, dumper_received)},
      {"analyzers.retrans_episodes", retrans_episodes},
      {"analyzers.gbn_episodes", gbn_episodes},
      {"results_io.bytes", results_bytes},
  };
}

IterationResult run_iteration(const Workload& w, const std::string& out_dir,
                              SpanLog* log, long id, int jobs) {
  const std::size_t input = static_cast<std::size_t>(id) % w.seeds.size();
  IterationResult out =
      w.campaign
          ? run_campaign_iteration(w, w.seeds[input], out_dir, log, id, jobs)
          : run_single(w, w.seeds[input], out_dir, log, id);
  out.input = input;
  return out;
}

double time_setup(const Workload& w) {
  const auto t0 = Clock::now();
  if (w.campaign) {
    const lumina::Campaign campaign =
        lumina::load_campaign(lumina::parse_yaml(w.yaml));
    return ms_since(t0);
  }
  lumina::Orchestrator::Options options = w.options;
  options.seed = w.seeds.front();
  const lumina::Orchestrator orch(
      lumina::load_test_config(lumina::parse_yaml(w.yaml)), options);
  return ms_since(t0);
}

}  // namespace perfbench
