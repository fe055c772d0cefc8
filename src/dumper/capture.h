// Capture records (§3.4–3.5): what a traffic dumper keeps of each mirrored
// frame, which is also the reconstructed trace's record.
//
// A dumper writes each admitted frame once, as its final record: the
// trimmed header bytes with the UDP destination port already restored to
// 4791, the parse view taken from the frame's cached view, the metadata
// the mirror engine embedded, and the original length. A testbed's dumper
// pool appends to one shared CaptureStore; the orchestrator moves that
// store into the trace and restores mirror order in place, so no frame is
// copied or decoded again after capture (docs/topology.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "injector/event_table.h"
#include "injector/mirror.h"
#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina {

/// A captured frame's bytes. Unlike Packet it carries no parse-view
/// cache: the record's `view` is the one parse of these bytes.
struct CapturedFrame {
  std::vector<std::uint8_t> bytes;

  std::size_t size() const { return bytes.size(); }
  std::span<const std::uint8_t> span() const { return bytes; }
};

struct TracePacket {
  CapturedFrame pkt;  ///< Trimmed capture, UDP port restored.
  RoceView view;      ///< Parsed headers (trimmed rules: iCRC 0 if cut).
  MirrorMeta meta;    ///< mirror_seq / switch ingress timestamp / event type.
  std::size_t orig_len = 0;
  Tick captured_at = 0;  ///< Dumper host capture time (not the switch's).
  /// Departure time of a packet a `delay` event held at the switch
  /// (ingress timestamp + injected hold, stamped by the orchestrator from
  /// the injector's release log); 0 for packets that left on the normal
  /// pipeline schedule.
  Tick released_at = 0;
  /// False for a capture even the trimmed parser rejects (a trim shorter
  /// than the headers); `view` is then meaningless and the trace skips it.
  bool has_view = true;

  Tick time() const { return meta.ingress_timestamp; }
  /// When the receiver actually saw this packet, modulo the constant
  /// pipeline + link latency every packet shares: the release time for
  /// delay-held packets, the ingress timestamp otherwise. Replaying a
  /// trace in (effective_time, mirror_seq) order reproduces the receiver's
  /// view — identical to mirror order on delay-free traces.
  Tick effective_time() const {
    return released_at > 0 ? released_at : meta.ingress_timestamp;
  }
  bool is_data() const { return is_data_opcode(view.bth.opcode); }
  FlowKey flow() const {
    return FlowKey{view.src_ip, view.dst_ip, view.bth.dest_qpn};
  }
};

// Records move whenever the store grows or the trace is reordered, so
// their size is paid per captured frame.
static_assert(sizeof(TracePacket) <= 256, "keep capture records compact");

/// Append-only capture records in arrival order.
using CaptureStore = std::vector<TracePacket>;

}  // namespace lumina
