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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
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

// Records move only when the trace is reordered, but their size is paid
// per captured frame.
static_assert(sizeof(TracePacket) <= 256, "keep capture records compact");

/// Append-only capture records in arrival order, stored in chunks that
/// never move: a record stays where it was captured until the trace is
/// reordered (restore_mirror_order), and the store holds at most one
/// partly filled chunk of slack — never a doubling vector's spare half.
/// Chunks start at kFirstChunk records, so a short run allocates little,
/// and double up to kMaxChunk records; index i maps to its chunk with a
/// few bit operations.
class CaptureStore {
 public:
  static constexpr std::size_t kFirstChunk = 128;
  static constexpr std::size_t kMaxChunk = 16384;

  CaptureStore() = default;
  /// `n` default records (a test fixture's shape).
  explicit CaptureStore(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) emplace_back();
  }

  std::size_t size() const {
    return chunks_.empty()
               ? 0
               : chunk_start(chunks_.size() - 1) + chunks_.back().size();
  }
  bool empty() const { return chunks_.empty(); }

  TracePacket& operator[](std::size_t i) {
    const Slot at = locate(i);
    return chunks_[at.chunk][at.offset];
  }
  const TracePacket& operator[](std::size_t i) const {
    const Slot at = locate(i);
    return chunks_[at.chunk][at.offset];
  }
  TracePacket& back() { return chunks_.back().back(); }

  /// Appends a default record in place and returns it.
  TracePacket& emplace_back() {
    const std::size_t k = chunks_.size();
    if (k == 0 || chunks_.back().size() == chunk_capacity(k - 1)) {
      if (k == 0) chunks_.reserve(kChunkTableReserve);
      chunks_.emplace_back().reserve(chunk_capacity(k));
    }
    return chunks_.back().emplace_back();
  }
  void push_back(TracePacket&& record) { emplace_back() = std::move(record); }

  /// Removes the records matching `pred`, keeping the others in order.
  /// Records ahead of the first removed one do not move.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    const std::size_t n = size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      TracePacket& record = (*this)[i];
      if (pred(record)) continue;
      if (kept != i) (*this)[kept] = std::move(record);
      ++kept;
    }
    for (std::size_t i = kept; i < n; ++i) pop_back();
    return n - kept;
  }

  /// Forward iteration in store order, chunk by chunk.
  template <bool Const>
  class Iterator {
    using Chunk = std::conditional_t<Const, const std::vector<TracePacket>,
                                     std::vector<TracePacket>>;

   public:
    Iterator(Chunk* chunk, std::size_t offset)
        : chunk_(chunk), offset_(offset) {}

    auto& operator*() const { return (*chunk_)[offset_]; }
    Iterator& operator++() {
      // Every chunk but the last is full and none is empty, so stepping
      // off a chunk's end lands on the next chunk's first record (or on
      // end(), the past-the-last chunk at offset 0).
      if (++offset_ == chunk_->size()) {
        ++chunk_;
        offset_ = 0;
      }
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    Chunk* chunk_;
    std::size_t offset_;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  iterator begin() { return {chunks_.data(), 0}; }
  iterator end() { return {chunks_.data() + chunks_.size(), 0}; }
  const_iterator begin() const { return {chunks_.data(), 0}; }
  const_iterator end() const { return {chunks_.data() + chunks_.size(), 0}; }

 private:
  void pop_back() {
    chunks_.back().pop_back();
    if (chunks_.back().empty()) chunks_.pop_back();
  }

  // Chunks 0 .. kGrowthChunks-1 hold kFirstChunk, kFirstChunk,
  // 2*kFirstChunk, ..., kMaxChunk/2 records (together kMaxChunk); every
  // later chunk holds kMaxChunk.
  static constexpr std::size_t kGrowthChunks =
      std::bit_width(kMaxChunk / kFirstChunk);
  static_assert(std::has_single_bit(kFirstChunk) &&
                std::has_single_bit(kMaxChunk) && kMaxChunk > kFirstChunk);
  /// Chunk-table entries reserved up front: room for 376,832 records
  /// (8 growth chunks of 16,384 together, then 22 full chunks) before the
  /// table itself grows.
  static constexpr std::size_t kChunkTableReserve = 30;

  static constexpr std::size_t chunk_capacity(std::size_t k) {
    if (k == 0) return kFirstChunk;
    return k < kGrowthChunks ? kFirstChunk << (k - 1) : kMaxChunk;
  }
  static constexpr std::size_t chunk_start(std::size_t k) {
    if (k == 0) return 0;
    return k < kGrowthChunks ? kFirstChunk << (k - 1)
                             : kMaxChunk * (k - kGrowthChunks + 1);
  }

  struct Slot {
    std::size_t chunk;
    std::size_t offset;
  };
  static constexpr Slot locate(std::size_t i) {
    if (i < kFirstChunk) return {0, i};
    if (i < kMaxChunk) {
      // Chunk k >= 1 starts at kFirstChunk << (k - 1), a power of two.
      return {std::bit_width(i) - std::bit_width(kFirstChunk) + 1,
              i - std::bit_floor(i)};
    }
    return {i / kMaxChunk + kGrowthChunks - 1, i % kMaxChunk};
  }

  std::vector<std::vector<TracePacket>> chunks_;
};

}  // namespace lumina
