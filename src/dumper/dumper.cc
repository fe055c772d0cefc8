#include "dumper/dumper.h"

#include <algorithm>

#include "packet/bytes.h"
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

// The dumper's rx pipeline, decomposed from the pre-pipeline monolithic
// handle_packet into two stages over a PacketBatch (same construction as
// SwitchPipeline in injector/switch.cc: the event kernel delivers one
// packet per call, so the production pump runs single-slot batches and
// the stage bodies concatenate to the former per-packet sequence).
struct DumperPipeline {
  using PacketBatch = pipeline::PacketBatch;
  using StageContract = pipeline::StageContract;

  /// NIC/ring admission: RSS core selection and the finite per-core
  /// service model. Ring overflow -> NIC discard. Stores the admitted
  /// slot's core in the slot metadata.
  class Admit : public pipeline::Stage {
   public:
    explicit Admit(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "admit"; }
    StageContract contract() const override {
      return {.provides_view = true, .may_consume = true};
    }
    void process(PacketBatch& batch) override {
      TrafficDumper& d = dumper_;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!batch.live(i)) continue;
        if (d.terminated_) {
          batch.consume(i);
          continue;
        }
        ++d.counters_.received;

        const auto view = parse_roce(batch.pkt(i));
        const Tick now = batch.meta(i).ingress_ts;
        const std::size_t core =
            view ? rss_hash(*view) % d.core_busy_until_.size() : 0;

        // Finite per-core processing: ring overflow -> NIC discard.
        Tick& busy = d.core_busy_until_[core];
        const Tick service = d.options_.per_packet_service;
        const std::size_t backlog =
            busy > now ? static_cast<std::size_t>((busy - now) / service) : 0;
        if (backlog >= d.options_.ring_capacity) {
          ++d.counters_.discarded;
          batch.consume(i);
          continue;
        }
        busy = std::max(busy, now) + service;
        batch.meta(i).core = core;
      }
    }

   private:
    TrafficDumper& dumper_;
  };

  /// Trim + store: writes each frame's capture record into the store
  /// (write_record); the wire buffer stays in the slot and recycles.
  class Capture : public pipeline::Stage {
   public:
    explicit Capture(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "capture"; }
    StageContract contract() const override {
      return {.needs_view = true, .may_consume = true};
    }
    void process(PacketBatch& batch) override {
      TrafficDumper& d = dumper_;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!batch.live(i)) continue;
        TracePacket& record = d.store_->emplace_back();
        write_record(batch.pkt(i), d.options_.trim_bytes, record);
        record.captured_at = batch.meta(i).ingress_ts;
        ++d.counters_.captured;
        batch.consume(i);
      }
    }

   private:
    TrafficDumper& dumper_;
  };

  static void build(TrafficDumper& dumper, pipeline::StageChain& chain) {
    chain.append(std::make_unique<Admit>(dumper));
    chain.append(std::make_unique<Capture>(dumper));
  }
};

TrafficDumper::TrafficDumper(Simulator* sim, std::string name, Options options,
                             CaptureStore* store)
    : sim_(sim),
      name_(std::move(name)),
      options_(options),
      port_(std::make_unique<Port>(sim, this, 0)),
      core_busy_until_(static_cast<std::size_t>(std::max(1, options.cores)), 0),
      store_(store != nullptr ? store : &own_store_) {
  DumperPipeline::build(*this, rx_pipeline_);
}

void TrafficDumper::handle_packet(int in_port, Packet pkt) {
  rx_batch_.clear();
  rx_batch_.push(std::move(pkt), in_port, sim_->now());
  handle_batch(rx_batch_);
}

void TrafficDumper::handle_batch(pipeline::PacketBatch& batch) {
  rx_pipeline_.run(batch);
  // Captures copy what they keep, so every wire buffer (captured or
  // discarded) is still in its slot and recycles here.
  batch.reclaim();
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
