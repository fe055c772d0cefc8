// Determinism property test for the telemetry report: the serialized
// deterministic section must be byte-identical across repeated runs and
// across campaign --jobs counts. This is the contract that lets the CI
// bench gate compare a fresh report against a checked-in baseline
// generated on a different machine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"

namespace lumina {
namespace {

constexpr const char* kCampaignYaml = R"(campaign:
  name: report-determinism
  seed: 77
  runs:
    - kind: experiment
      name: drop-sweep
      repeat: 2
      sweep:
        message-size: [4096, 10240]
      config:
        traffic:
          rdma-verb: write
          num-msgs-per-qp: 3
          mtu: 1024
          data-pkt-events:
          - {qpn: 1, psn: 2, type: drop, iter: 1}
)";

std::string deterministic_bytes_at_jobs(const Campaign& campaign, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seed = campaign.seed;
  const CampaignReport report = run_campaign(campaign, options);
  EXPECT_EQ(report.ok_count(), report.runs.size());
  return telemetry::serialize_deterministic(
      campaign_report_json(report).deterministic);
}

TEST(ReportDeterminism, CampaignReportIsByteIdenticalAcrossJobCounts) {
  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  ASSERT_EQ(campaign.runs.size(), 4u);

  const std::string jobs1 = deterministic_bytes_at_jobs(campaign, 1);
  const std::string jobs4 = deterministic_bytes_at_jobs(campaign, 4);
  const std::string jobs8 = deterministic_bytes_at_jobs(campaign, 8);

  // Sanity: the report is non-trivial and integer-valued metrics landed.
  EXPECT_GT(jobs1.size(), 1000u);
  EXPECT_NE(jobs1.find("\"campaign.runs_total\": 4"), std::string::npos);
  EXPECT_NE(jobs1.find("sim.events_processed"), std::string::npos);
  EXPECT_NE(jobs1.find("rnic.requester.retransmits"), std::string::npos);

  EXPECT_EQ(jobs1, jobs4) << "jobs=1 vs jobs=4";
  EXPECT_EQ(jobs1, jobs8) << "jobs=1 vs jobs=8";
}

// A schema-v2 multi-host run inside a campaign: 3 senders incast onto one
// sink, swept over two message sizes (docs/topology.md).
constexpr const char* kIncastCampaignYaml = R"(campaign:
  name: incast-determinism
  seed: 99
  runs:
    - kind: experiment
      name: incast-3to1
      repeat: 2
      sweep:
        message-size: [8192, 16384]
      config:
        hosts:
        - nic: {type: cx6}
        - nic: {type: cx6}
        - nic: {type: cx6}
        - name: sink
          nic: {type: cx6}
        connections:
        - {src: 0, dst: sink}
        - {src: 1, dst: sink}
        - {src: 2, dst: sink}
        traffic:
          rdma-verb: write
          num-msgs-per-qp: 2
          mtu: 1024
          data-pkt-events:
          - {qpn: 2, psn: 3, type: ecn, iter: 1}
)";

TEST(ReportDeterminism, IncastCampaignIsByteIdenticalAcrossJobCounts) {
  const Campaign campaign = load_campaign(parse_yaml(kIncastCampaignYaml));
  ASSERT_EQ(campaign.runs.size(), 4u);

  const std::string jobs1 = deterministic_bytes_at_jobs(campaign, 1);
  const std::string jobs4 = deterministic_bytes_at_jobs(campaign, 4);
  const std::string jobs8 = deterministic_bytes_at_jobs(campaign, 8);

  EXPECT_GT(jobs1.size(), 1000u);
  // Per-host NIC metrics exist for hosts beyond the classic pair.
  EXPECT_NE(jobs1.find("rnic.host2."), std::string::npos);
  EXPECT_NE(jobs1.find("rnic.sink."), std::string::npos);
  EXPECT_EQ(jobs1, jobs4) << "jobs=1 vs jobs=4";
  EXPECT_EQ(jobs1, jobs8) << "jobs=1 vs jobs=8";
}

/// The same contract through the CI gate's own oracle: diff_reports at
/// tolerance 0 must find zero differing metrics between job counts.
TEST(ReportDeterminism, StructuredDiffAtToleranceZeroAcrossJobCounts) {
  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  const auto report_at_jobs = [&](int jobs) {
    CampaignOptions options;
    options.jobs = jobs;
    options.seed = campaign.seed;
    return campaign_report_json(run_campaign(campaign, options));
  };
  const telemetry::RunReport jobs1 = report_at_jobs(1);
  const telemetry::RunReport jobs8 = report_at_jobs(8);

  const auto diff =
      telemetry::diff_reports(jobs1, jobs8, telemetry::DiffOptions{});
  EXPECT_TRUE(diff.passed()) << telemetry::format_diff(diff);
  EXPECT_EQ(diff.diffs.size(), 0u);
  EXPECT_GT(diff.compared, 50u);
}

/// Every file write_results() leaves for `result`, keyed by file name.
std::map<std::string, std::string> artifact_bytes(const TestResult& result,
                                                  const std::string& tag) {
  namespace fs = std::filesystem;
  const std::string pid = std::to_string(::getpid());
  const fs::path dir = fs::temp_directory_path() / ("lumina_" + tag + pid);
  fs::remove_all(dir);
  std::string failed;
  EXPECT_TRUE(write_results(result, dir.string(), &failed)) << failed;
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ostringstream bytes;
    bytes << std::ifstream(entry.path(), std::ios::binary).rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  fs::remove_all(dir);
  return files;
}

/// Runs `cfg` twice and requires byte-identical telemetry snapshots and
/// artifact trees.
void expect_repeat_runs_identical(const std::string& name,
                                  const TestConfig& cfg) {
  Orchestrator first(cfg);
  Orchestrator second(cfg);
  const TestResult& ra = first.run();
  const TestResult& rb = second.run();
  const std::string a = telemetry::serialize_deterministic(ra.telemetry);
  const std::string b = telemetry::serialize_deterministic(rb.telemetry);
  EXPECT_GT(a.size(), 500u) << name;
  EXPECT_EQ(a, b) << name;
  // Same directory name for both: report.json records it.
  const auto files = artifact_bytes(ra, name);
  EXPECT_GE(files.size(), 8u) << name;
  EXPECT_TRUE(files == artifact_bytes(rb, name)) << name;
}

TEST(ReportDeterminism, RepeatedRunsProduceIdenticalSnapshots) {
  TestConfig drop;
  drop.traffic.num_connections = 2;
  drop.traffic.num_msgs_per_qp = 4;
  drop.traffic.message_size = 10240;
  drop.traffic.mtu = 1024;
  drop.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  expect_repeat_runs_identical("drop", drop);

  // The whole stateful fault vocabulary in one run; no golden tree pins
  // its bytes, so this repeat-run check does.
  const std::string faults_yaml =
      std::string(LUMINA_EXAMPLES_DIR) + "/configs/fault_vocabulary.yaml";
  const TestConfig faults = load_test_config(parse_yaml_file(faults_yaml));
  expect_repeat_runs_identical("fault_vocabulary", faults);
}

TEST(ReportDeterminism, TelemetryCanBeDisabled) {
  TestConfig cfg;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.mtu = 1024;
  Orchestrator::Options options;
  options.enable_telemetry = false;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  EXPECT_TRUE(result.finished);
  EXPECT_TRUE(result.telemetry.empty());
  EXPECT_EQ(orch.metrics(), nullptr);
  EXPECT_EQ(orch.trace_sink(), nullptr);
}

TEST(ReportDeterminism, TraceEventsLandOnExpectedTracks) {
  TestConfig cfg;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 10240;
  cfg.traffic.mtu = 1024;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  orch.run();

  bool saw_injector = false;
  bool saw_responder = false;
  bool saw_host = false;
  for (const auto& ev : orch.trace_sink()->events_in_order()) {
    saw_injector |= ev.tid == telemetry::kTrackInjector;
    saw_responder |= ev.tid == telemetry::kTrackResponder;
    saw_host |= ev.tid == telemetry::kTrackHost;
  }
  EXPECT_TRUE(saw_injector) << "no injector events traced";
  EXPECT_TRUE(saw_responder) << "no responder NACK/CNP events traced";
  EXPECT_TRUE(saw_host) << "no host completion events traced";
}

}  // namespace
}  // namespace lumina
