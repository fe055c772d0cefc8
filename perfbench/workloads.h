// The benchmark's three workloads (README.md, "Workloads"). Each one is
// config text plus the library options a user would pass. The benchmark
// seed only reaches the program through Orchestrator::Options::seed or the
// campaign seed, so the same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "orchestrator/orchestrator.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Experiment YAML (single-run workloads) or campaign YAML.
  std::string yaml;
  bool campaign = false;
  /// Campaign worker threads; single runs stay on one thread.
  int jobs = 1;
  /// Single-run library options; only the switch's ECN threshold differs
  /// from the defaults (no kernel knob is pinned). The seed comes from
  /// `seeds`.
  lumina::Orchestrator::Options options;
  /// Program seed of each input; iteration i runs input i % seeds.size().
  /// A single run has one input. The campaign cycles through several
  /// campaign seeds, because its fuzz shards do seed-dependent work: every
  /// benchmark seed then measures the same mix of shard sizes.
  std::vector<std::uint64_t> seeds;
  /// lossy_read_2host: every injected drop must surface as exactly one
  /// analyzed retransmission episode.
  bool episodes_match_drops = false;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace perfbench
