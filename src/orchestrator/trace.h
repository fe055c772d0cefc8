// Reconstructed packet trace (§3.5).
//
// The orchestrator takes the capture records of the whole dumper pool
// (dumper/capture.h) and orders them by the mirror sequence number the
// event injector embedded — no clock synchronization is needed because
// every timestamp comes from the single switch clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dumper/capture.h"

namespace lumina {

/// The §3.5 integrity check: all three conditions must hold before a trace
/// is admitted for analysis.
struct IntegrityReport {
  bool seqnums_consecutive = false;
  bool matches_mirrored_count = false;
  bool matches_roce_rx_count = false;
  std::uint64_t trace_packets = 0;
  std::uint64_t injector_mirrored = 0;
  std::uint64_t injector_roce_rx = 0;
  std::uint64_t missing_seqnums = 0;

  bool ok() const {
    return seqnums_consecutive && matches_mirrored_count &&
           matches_roce_rx_count;
  }
  std::string to_string() const;
};

/// Sorts capture records by mirror sequence number in place; records with
/// equal numbers keep their store order. Dumper arrivals are nearly in
/// mirror order already, so only displaced records move (each moves back
/// past the records mirrored after it). Once that displacement exceeds the
/// record count the rest of the work goes to an O(n log n) key sort that
/// permutes the records in place; either way no second record-sized
/// buffer is allocated. Returns true when the key sort ran.
bool restore_mirror_order(CaptureStore& records);

struct PacketTrace {
  /// The dumper pool's capture store, sorted by mirror sequence number.
  CaptureStore packets;

  std::size_t size() const { return packets.size(); }
  const TracePacket& operator[](std::size_t i) const { return packets[i]; }
  auto begin() const { return packets.begin(); }
  auto end() const { return packets.end(); }
};

}  // namespace lumina
