#include "workloads.h"

#include <string>

#include "campaign/parallel.h"

namespace perfbench {
namespace {

constexpr int kIncastHosts = 32;
constexpr int kReadQps = 4;
constexpr int kReadMsgsPerQp = 200;
constexpr int kReadMsgBytes = 16 * 1024;
constexpr int kReadMtu = 256;
constexpr int kReadDropEvery = 97;
constexpr int kCampaignSeeds = 16;

/// 31 CX6 Dx senders each write 20 x 64 KiB into host 31 at MTU 1024,
/// with one injected ECN mark on connection 1.
std::string incast32_yaml() {
  std::string yaml = "hosts:\n";
  for (int i = 0; i < kIncastHosts; ++i) {
    yaml += "- name: h" + std::to_string(i) + "\n  nic: {type: cx6}\n";
  }
  yaml += "connections:\n";
  for (int i = 0; i + 1 < kIncastHosts; ++i) {
    yaml += "- {src: " + std::to_string(i) +
            ", dst: " + std::to_string(kIncastHosts - 1) + "}\n";
  }
  yaml +=
      "traffic:\n"
      "  rdma-verb: write\n"
      "  num-msgs-per-qp: 20\n"
      "  mtu: 1024\n"
      "  message-size: 65536\n"
      "  data-pkt-events:\n"
      "  - {qpn: 1, psn: 3, type: ecn, iter: 1}\n";
  return yaml;
}

/// 2 CX5 hosts, 4 QPs of 200 x 16 KiB RDMA Reads at MTU 256; every 97th
/// response packet of each QP is dropped. The injector's ITER of a flow
/// advances with every retransmission round, so drop k matches iter k.
std::string lossy_read_yaml() {
  std::string yaml =
      "requester:\n"
      "  nic: {type: cx5}\n"
      "responder:\n"
      "  nic: {type: cx5}\n"
      "traffic:\n"
      "  num-connections: " + std::to_string(kReadQps) + "\n"
      "  rdma-verb: read\n"
      "  num-msgs-per-qp: " + std::to_string(kReadMsgsPerQp) + "\n"
      "  mtu: " + std::to_string(kReadMtu) + "\n"
      "  message-size: " + std::to_string(kReadMsgBytes) + "\n"
      "  data-pkt-events:\n";
  const int packets_per_qp = kReadMsgsPerQp * (kReadMsgBytes / kReadMtu);
  for (int qp = 1; qp <= kReadQps; ++qp) {
    for (int k = 1; k * kReadDropEvery <= packets_per_qp; ++k) {
      yaml += "  - {qpn: " + std::to_string(qp) +
              ", psn: " + std::to_string(k * kReadDropEvery) +
              ", type: drop, iter: " + std::to_string(k) + "}\n";
    }
  }
  return yaml;
}

/// The 36-run campaign of bench/campaign_scaling.cc: 24 Write/Read x size
/// x QP-count experiments with one drop, 8 lossy-network fuzz shards and
/// 4 E810 suite probes. Its seed comes from Workload::seeds.
constexpr const char* kCampaignYaml = R"(campaign:
  name: perfbench
  runs:
    - kind: experiment
      name: sweep
      repeat: 2
      sweep:
        rdma-verb: [write, read]
        message-size: [10240, 30720]
        num-connections: [1, 2, 3]
      config:
        traffic:
          num-msgs-per-qp: 8
          mtu: 1024
          data-pkt-events:
          - {qpn: 1, psn: 3, type: drop, iter: 1}
    - kind: fuzz
      target: lossy-network
      nic: cx5
      shards: 8
      pool-size: 2
      max-iterations: 2
    - kind: suite
      nics: [e810]
      issues: [cnp-rate-limiting, counter-inconsistency, adaptive-retrans, interop-migreq]
)";

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "incast32_write", "lossy_read_2host", "campaign36_jobs2"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seeds = {seed};
  if (name == "incast32_write") {
    w.yaml = incast32_yaml();
    // RED-style marking at the bottleneck egress, as bench/incast_scaling.
    w.options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
  } else if (name == "lossy_read_2host") {
    w.yaml = lossy_read_yaml();
    w.episodes_match_drops = true;
  } else if (name == "campaign36_jobs2") {
    w.yaml = kCampaignYaml;
    w.campaign = true;
    w.jobs = 2;
    w.seeds.clear();
    for (int k = 0; k < kCampaignSeeds; ++k) {
      w.seeds.push_back(lumina::derive_run_seed(seed, k));
    }
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace perfbench
