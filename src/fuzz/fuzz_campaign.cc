#include "fuzz/fuzz_campaign.h"

#include <cstdio>
#include <filesystem>

#include "fuzz/targets.h"

namespace lumina {
namespace {

std::string shard_label(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%03d", shard);
  return buf;
}

std::string shard_file_name(int shard) {
  return shard_label(shard) + ".yaml";
}

/// Builds the spec's target with the fitness override applied. Throws
/// YamlError on an unknown target name so both the loader and the runner
/// report bad specs identically.
FuzzTarget resolve_target(const FuzzCampaignSpec& spec) {
  auto target = make_fuzz_target(spec.target, spec.nic, spec.scenario_hosts);
  if (!target) {
    throw YamlError("fuzz-campaign.target: unknown fuzz target '" +
                    spec.target + "' (registered: " + fuzz_target_names() +
                    ")");
  }
  if (!spec.fitness.empty()) {
    target->score = make_fitness(spec.fitness);
  }
  return std::move(*target);
}

}  // namespace

FuzzCampaignSpec load_fuzz_campaign(const YamlNode& root) {
  const YamlNode& node = root["fuzz-campaign"];
  if (!node.is_map()) {
    throw YamlError("expected a top-level 'fuzz-campaign:' map");
  }
  FuzzCampaignSpec spec;
  spec.name = node["name"].as_string_or(spec.name);
  spec.target = node["target"].as_string_or(spec.target);
  if (node.has("nic")) {
    const std::string name = node["nic"].as_string();
    const auto nic = parse_nic_type(name);
    if (!nic) throw YamlError("unknown NIC type '" + name + "'");
    spec.nic = *nic;
  }
  spec.scenario_hosts = static_cast<int>(
      node["hosts"].as_int_or(spec.scenario_hosts));
  spec.shards = static_cast<int>(node["shards"].as_int_or(spec.shards));
  if (spec.shards < 1) throw YamlError("fuzz-campaign needs shards >= 1");
  spec.seed = static_cast<std::uint64_t>(node["seed"].as_int_or(
      static_cast<std::int64_t>(spec.seed)));
  spec.step_budget = static_cast<int>(
      node["step-budget"].as_int_or(spec.step_budget));
  spec.corpus_dir = node["corpus-dir"].as_string_or(spec.corpus_dir);
  spec.fuzzer.pool_size = static_cast<int>(
      node["pool-size"].as_int_or(spec.fuzzer.pool_size));
  spec.fuzzer.max_iterations = static_cast<int>(
      node["max-iterations"].as_int_or(spec.fuzzer.max_iterations));
  spec.fuzzer.low_quality_keep_probability =
      node["low-quality-keep-probability"].as_double_or(
          spec.fuzzer.low_quality_keep_probability);
  if (node.has("fitness")) {
    spec.fitness = load_fitness(node["fitness"]);
  }
  resolve_target(spec);  // fail on unknown target at load time
  return spec;
}

FuzzCampaignSpec load_fuzz_campaign_file(const std::string& path) {
  return load_fuzz_campaign(parse_yaml_file(path));
}

FuzzCampaignRunReport run_fuzz_campaign_spec(
    const FuzzCampaignSpec& spec, const CampaignOptions& options,
    const std::vector<std::optional<FuzzCorpusState>>& resume) {
  const FuzzTarget target = resolve_target(spec);
  FuzzCampaignRunReport report;
  report.name = spec.name;
  report.seed = options.seed;

  // Shards share nothing: each owns its fuzzer, Rng, and Orchestrators,
  // and writes only its own slot — the same parallel_map discipline the
  // campaign runner uses, so artifacts are jobs-invariant.
  report.shards = parallel_map<FuzzShardOutcome>(
      static_cast<std::size_t>(spec.shards), options.jobs,
      [&](std::size_t i) {
        GeneticFuzzer::Options shard_options = spec.fuzzer;
        shard_options.seed = derive_run_seed(options.seed, i);
        GeneticFuzzer fuzzer(target, shard_options);
        FuzzShardOutcome shard;
        if (i < resume.size() && resume[i].has_value()) {
          fuzzer.restore(*resume[i]);
          shard.resumed = true;
        }
        shard.outcome = fuzzer.run(spec.step_budget);
        shard.state = fuzzer.checkpoint();
        shard.corpus = serialize_corpus(shard.state);
        return shard;
      });

  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    if (report.anomaly_shard < 0 &&
        report.shards[i].state.anomaly.has_value()) {
      report.anomaly_shard = static_cast<int>(i);
    }
  }
  return report;
}

telemetry::RunReport fuzz_campaign_report_json(
    const FuzzCampaignRunReport& report) {
  telemetry::RunReport out;
  out.name = report.name;
  auto& counters = out.deterministic.counters;
  counters["fuzz.shards"] = report.shards.size();
  counters["fuzz.steps_total"] =
      static_cast<std::uint64_t>(report.total_steps());
  std::uint64_t done = 0;
  std::uint64_t pool_total = 0;
  std::uint64_t anomalies = 0;
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const FuzzShardOutcome& shard = report.shards[i];
    done += shard.state.done ? 1 : 0;
    pool_total += shard.state.pool.size();
    anomalies += shard.state.anomaly.has_value() ? 1 : 0;
    const std::string prefix =
        "fuzz." + shard_label(static_cast<int>(i)) + ".";
    counters[prefix + "steps"] =
        static_cast<std::uint64_t>(shard.state.steps_done);
    counters[prefix + "pool"] = shard.state.pool.size();
    counters[prefix + "corpus_digest"] = corpus_digest(shard.corpus);
    counters[prefix + "done"] = shard.state.done ? 1 : 0;
  }
  counters["fuzz.shards_done"] = done;
  counters["fuzz.pool_total"] = pool_total;
  counters["fuzz.anomalies"] = anomalies;
  if (report.anomaly_shard >= 0) {
    counters["fuzz.anomaly_shard"] =
        static_cast<std::uint64_t>(report.anomaly_shard);
  }
  return out;
}

bool write_fuzz_corpora(const FuzzCampaignRunReport& report,
                        const std::string& corpus_dir,
                        std::string* failed_path) {
  std::error_code ec;
  std::filesystem::create_directories(corpus_dir, ec);
  if (ec) {
    if (failed_path) *failed_path = corpus_dir;
    return false;
  }
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const std::string path =
        corpus_dir + "/" + shard_file_name(static_cast<int>(i));
    if (!write_corpus_file(report.shards[i].state, path, failed_path)) {
      return false;
    }
  }
  return true;
}

std::vector<std::optional<FuzzCorpusState>> load_fuzz_corpora(
    const std::string& corpus_dir, int shards) {
  std::vector<std::optional<FuzzCorpusState>> states;
  states.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    states.push_back(load_corpus_file(corpus_dir + "/" + shard_file_name(i)));
  }
  return states;
}

}  // namespace lumina
