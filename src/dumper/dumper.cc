#include "dumper/dumper.h"

#include <algorithm>

#include "packet/bytes.h"
#include "packet/packet_arena.h"
#include "packet/pcap_writer.h"

namespace lumina {
namespace {

/// Toeplitz-flavored RSS stand-in: mixes the fields real RSS hashes.
std::uint32_t rss_hash(const RoceView& v) {
  std::uint64_t h = v.src_ip.value;
  h = h * 0x9e3779b97f4a7c15ULL + v.dst_ip.value;
  h = h * 0x9e3779b97f4a7c15ULL + v.udp_src_port;
  h = h * 0x9e3779b97f4a7c15ULL + v.udp_dst_port;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

/// Fills `record` from `pkt`: the first `trim_bytes` bytes with the UDP
/// destination port restored (§3.4), the mirror metadata, the original
/// length, and the view under Packet::clone_into's trim rules — a cached
/// view of identical bytes is kept as is, a full view whose headers
/// survive the cut is kept with iCRC 0 (what the trimmed parser reports),
/// and anything else is decoded from the copied bytes.
void write_record(const Packet& pkt, std::size_t trim_bytes,
                  TracePacket& record) {
  const std::size_t n = std::min(pkt.size(), trim_bytes);
  record.pkt.bytes.assign(pkt.bytes.begin(),
                          pkt.bytes.begin() + static_cast<std::ptrdiff_t>(n));
  if (n >= off::kUdpDstPort + 2) {
    poke_u16(record.pkt.bytes, off::kUdpDstPort, kRoceUdpPort);
  }
  record.meta = extract_mirror_meta(pkt);
  record.orig_len = pkt.size();

  const bool whole = n == pkt.size();
  const bool full = pkt.view_state == ViewCacheState::kFull;
  if ((full && (whole || n >= pkt.view.payload_offset)) ||
      (whole && pkt.view_state == ViewCacheState::kTrimmed)) {
    record.view = pkt.view;
    if (!whole) record.view.icrc = 0;
    record.view.udp_dst_port = kRoceUdpPort;  // the headers hold the port
    record.has_view = true;
    return;
  }
  const auto view = parse_roce_bytes(record.pkt.span(), /*allow_trimmed=*/true);
  record.has_view = view.has_value();
  if (view) record.view = *view;
}

}  // namespace

TrafficDumper::TrafficDumper(Simulator* sim, std::string name, Options options,
                             CaptureStore* store)
    : sim_(sim),
      name_(std::move(name)),
      options_(options),
      port_(std::make_unique<Port>(sim, this, 0)),
      core_busy_until_(static_cast<std::size_t>(std::max(1, options.cores)), 0),
      store_(store != nullptr ? store : &own_store_) {}

void TrafficDumper::handle_packet(int in_port, Packet pkt) {
  (void)in_port;
  // Captures copy what they keep, so every wire buffer (captured or
  // discarded) recycles on return.
  ScopedPacketReclaim reclaim(pkt);
  if (terminated_) return;
  ++counters_.received;

  // Admit: RSS core selection and the finite per-core service model.
  const auto view = parse_roce(pkt);
  const Tick now = sim_->now();
  const std::size_t core = view ? rss_hash(*view) % core_busy_until_.size() : 0;
  Tick& busy = core_busy_until_[core];
  const Tick service = options_.per_packet_service;
  const std::size_t backlog =
      busy > now ? static_cast<std::size_t>((busy - now) / service) : 0;
  if (backlog >= options_.ring_capacity) {
    ++counters_.discarded;  // ring overflow -> NIC discard
    return;
  }
  busy = std::max(busy, now) + service;

  // Capture: trim and write the final record straight into the store.
  TracePacket& record = store_->emplace_back();
  write_record(pkt, options_.trim_bytes, record);
  record.captured_at = now;
  ++counters_.captured;
}

bool TrafficDumper::write_pcap(const std::string& path) const {
  PcapWriter writer;
  if (!writer.open(path)) return false;
  for (const auto& record : *store_) {
    if (!writer.write(record.pkt.span(), record.captured_at,
                      record.orig_len)) {
      return false;
    }
  }
  return true;
}

}  // namespace lumina
