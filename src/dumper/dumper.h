// Traffic dumper node (§3.4): one host of the traffic dumper pool.
//
// Models the DPDK capture tool: mirrored packets arrive on the NIC, RSS
// hashes the (addresses, UDP ports) tuple onto a CPU core, and each core
// copies the first `trim_bytes` bytes into a pre-allocated ring. A core
// has finite per-packet service capacity; when its ring backs up the NIC
// discards (the rx_discards_phy situation §3.4 describes for the naive
// two-host design). Because the mirror engine randomizes the UDP
// destination port, RSS spreads even a single flow across all cores.
//
// Each captured frame is written once, as its final capture record
// (dumper/capture.h): the trimmed bytes with the UDP destination port
// reverted to 4791 (§3.4, done at copy time rather than at TERM), the
// parse view, the mirror metadata, and the original length. TERM stops
// capture; the records can be persisted as a pcap file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dumper/capture.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace lumina {

struct DumperCounters {
  std::uint64_t received = 0;
  std::uint64_t captured = 0;
  std::uint64_t discarded = 0;  ///< Ring overflow (NIC rx discards).
};

class TrafficDumper : public Node {
 public:
  struct Options {
    int cores = 8;
    Tick per_packet_service = 250;   ///< Per-core copy cost per packet.
    std::size_t ring_capacity = 4096;  ///< Packets buffered per core.
    std::size_t trim_bytes = 128;    ///< §5: first 128 B carry all headers.
  };

  /// Captures go to `store` when given (a testbed passes one store to its
  /// whole pool, so every member appends to the same vector in arrival
  /// order); otherwise the dumper keeps a store of its own.
  TrafficDumper(Simulator* sim, std::string name, Options options,
                CaptureStore* store = nullptr);

  Port& port() { return *port_; }

  // handle_packet runs the capture steps in order: admit (RSS core, ring
  // overflow) -> capture (docs/packet.md "Per-packet data plane").
  void handle_packet(int in_port, Packet pkt) override;
  std::string name() const override { return name_; }

  /// TERM from the orchestrator: later arrivals are no longer captured.
  void terminate() { terminated_ = true; }

  /// The capture store this dumper appends to (shared by a testbed's whole
  /// pool, so it then holds every member's records).
  const CaptureStore& packets() const { return *store_; }
  const DumperCounters& counters() const { return counters_; }

  /// Writes the capture store's (trimmed) packets to a pcap file.
  bool write_pcap(const std::string& path) const;

 private:
  Simulator* sim_;
  std::string name_;
  Options options_;
  std::unique_ptr<Port> port_;
  std::vector<Tick> core_busy_until_;
  CaptureStore own_store_;  ///< Used when no shared store was given.
  CaptureStore* store_;
  DumperCounters counters_;
  bool terminated_ = false;
};

}  // namespace lumina
