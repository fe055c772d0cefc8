// Packet data-plane microbench: the PR-5 fast paths against the retained
// reference implementations (packet/icrc.h, docs/packet.md).
//
// Three workloads:
//   icrc    — copy-free slice-by-8 compute_icrc vs the bit-at-a-time
//             pseudo-packet-materializing compute_icrc_reference, across
//             frame sizes 64B .. 4KiB.
//   hops    — the switch->mirror->RNIC->dumper parse chain on one frame:
//             cached parse views (each hop reuses the first decode) vs the
//             pre-cache behavior (every hop re-decodes), emulated by
//             invalidating the view before each parse.
//   migreq  — set_mig_req's O(log n) incremental trailer patch vs a full
//             refresh_icrc recompute after the same flag write.
//   clmul   — the CLMUL-folded crc32_update vs the slice-by-8 engine over
//             64 frames at a time (the RNIC's iCRC-verify inner loop),
//             across frame sizes. Equality is gated exactly; the speedup
//             is informational (1.0x by construction on CPUs without
//             PCLMULQDQ or under -DLUMINA_DISABLE_CLMUL=ON).
//   build   — the one-pass build_roce_packet (direct stores, seeded parse
//             view, masked-head iCRC) vs the retired byte-at-a-time
//             builder (tests/support/reference_builder.h) over a fixed
//             sweep of RNIC frame shapes and PSNs per payload size. Every
//             frame must equal the reference byte for byte; the digest of
//             the sweep is a baseline counter, the speedup informational.
//
// Wall-clock throughput is hardware-dependent and only gated loosely (the
// documented floors in docs/campaigns.md: >= 3x on icrc at 1KiB+, >= 2x on
// the hop chain). Correctness is gated exactly: every fast result must
// equal its reference, and with --out the deterministic counters (CRC
// values and frame digests, machine-independent integers) are diffed
// against bench/baselines/packet_fastpath_baseline.json in CI.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "packet/icrc.h"
#include "packet/packet_arena.h"
#include "packet/roce_packet.h"
#include "support/reference_builder.h"
#include "telemetry/report.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Packet make_frame(std::uint32_t payload_len, std::uint32_t psn = 0x4242) {
  RocePacketSpec spec;
  spec.src_mac = MacAddress::from_u48(0x0200000000aa);
  spec.dst_mac = MacAddress::from_u48(0x0200000000bb);
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0x1000, 0x55, payload_len};
  spec.payload_len = payload_len;
  spec.dest_qpn = 0x0102;
  spec.psn = psn;
  return build_roce_packet(spec);
}

/// Calls `fn` in batches until ~`budget` seconds elapse; returns calls/s.
template <typename Fn>
double throughput(Fn&& fn, double budget = 0.25) {
  // Warm up (tables, branch predictors) and establish a batch size.
  fn();
  std::uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  double wall = 0;
  do {
    for (int i = 0; i < 64; ++i) fn();
    calls += 64;
    wall = seconds_since(start);
  } while (wall < budget);
  return static_cast<double>(calls) / wall;
}

std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  // Report counters parse back as int64: keep the digest in that range.
  return hash & 0x7fffffffffffffffULL;
}

volatile std::uint32_t g_sink = 0;  ///< Defeats dead-code elimination.

/// The frame shapes an RNIC emits: each opcode with the extension headers
/// that follow its BTH.
std::vector<RocePacketSpec> build_sweep(std::uint32_t payload_len) {
  constexpr IbOpcode kRnicOpcodes[] = {
      IbOpcode::kSendOnly,       IbOpcode::kWriteFirst,
      IbOpcode::kWriteMiddle,    IbOpcode::kWriteOnly,
      IbOpcode::kReadRequest,    IbOpcode::kReadRespFirst,
      IbOpcode::kReadRespMiddle, IbOpcode::kReadRespLast,
      IbOpcode::kAcknowledge,    IbOpcode::kFetchAdd,
      IbOpcode::kAtomicAck,      IbOpcode::kCnp,
  };
  RocePacketSpec base;
  base.src_mac = MacAddress::from_u48(0x0200000000aa);
  base.dst_mac = MacAddress::from_u48(0x0200000000bb);
  base.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  base.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  base.src_udp_port = 49153;
  base.dest_qpn = 0x0102;
  base.payload_len = payload_len;
  std::vector<RocePacketSpec> shapes;
  for (const IbOpcode op : kRnicOpcodes) {
    RocePacketSpec spec = base;
    spec.opcode = op;
    const ExtensionHeaders ext = extension_headers(op);
    if (ext.reth) spec.reth = Reth{0x1000, 0x55, payload_len};
    if (ext.aeth) spec.aeth = Aeth::ack(0x3456);
    if (ext.atomic_eth) spec.atomic_eth = AtomicEth{0x2000, 0x66, 1, 0};
    if (ext.atomic_ack_eth) spec.atomic_ack_eth = AtomicAckEth{41};
    shapes.push_back(spec);
  }
  // Each shape at PSNs running across the 24-bit wrap, ECN and ack_req
  // varying with the PSN.
  std::vector<RocePacketSpec> sweep;
  for (const RocePacketSpec& shape : shapes) {
    for (std::uint32_t k = 0; k < 8; ++k) {
      RocePacketSpec spec = shape;
      spec.psn = (0xfffffc + k) & kPsnMask;
      spec.ecn = static_cast<std::uint8_t>(k & 0b11);
      spec.ack_req = k % 4 == 3;
      sweep.push_back(spec);
    }
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out report.json]\n", argv[0]);
      return 2;
    }
  }

  heading("Packet data-plane fast path vs reference implementations");
  ShapeCheck check;
  telemetry::RunReport report;
  report.name = "packet_fastpath";

  // ---- Workload 1: compute_icrc ----------------------------------------
  subheading("icrc: copy-free slice-by-8 vs pseudo-packet bitwise (Mops/s)");
  Table icrc_table({"frame", "reference", "fast", "speedup"});
  const std::vector<std::uint32_t> payloads = {0, 192, 952, 4024};
  double icrc_speedup_1k = 0;
  for (const std::uint32_t payload : payloads) {
    const Packet pkt = make_frame(payload);
    const auto frame = pkt.span().first(pkt.size() - 4);
    const std::uint32_t fast_value = compute_icrc(frame, off::kIp);
    const std::uint32_t ref_value = compute_icrc_reference(frame, off::kIp);
    check.expect(fast_value == ref_value,
                 "icrc equal at frame " + std::to_string(frame.size()) + "B");
    report.deterministic.counters["icrc_frame_" +
                                  std::to_string(frame.size())] = fast_value;

    const double ref_rate = throughput(
        [&frame] { g_sink = compute_icrc_reference(frame, off::kIp); });
    const double fast_rate =
        throughput([&frame] { g_sink = compute_icrc(frame, off::kIp); });
    const double speedup = fast_rate / ref_rate;
    if (frame.size() >= 1000) {
      icrc_speedup_1k = std::max(icrc_speedup_1k, speedup);
    }
    icrc_table.add_row({std::to_string(frame.size()) + "B",
                        fmt("%.2f", ref_rate / 1e6),
                        fmt("%.2f", fast_rate / 1e6), fmt("%.2fx", speedup)});
    report.wall["icrc_speedup_" + std::to_string(frame.size())] = speedup;
  }
  icrc_table.print();

  // ---- Workload 2: parse-per-hop chain ---------------------------------
  subheading("hops: switch->mirror->RNIC->dumper chain (Mchains/s)");
  // One chain = the parses and rewrites a frame sees end to end: the
  // injector parses, the mirror engine rewrites TTL/MACs/UDP port, then
  // the receiving RNIC and the dumper each parse again.
  const auto run_chain = [](Packet& pkt, bool cached) {
    if (!cached) pkt.invalidate_view();
    g_sink = g_sink + (parse_roce(pkt) ? 1u : 0u);  // injector classifies
    set_ttl(pkt, 1);                      // mirror embeds event type
    set_src_mac(pkt, 7);                  // ... and mirror sequence
    set_dst_mac(pkt, 9);                  // ... and ingress timestamp
    set_udp_dst_port(pkt, 31337);         // ... and the RSS trick
    if (!cached) pkt.invalidate_view();
    g_sink = g_sink + (parse_roce(pkt) ? 1u : 0u);  // RNIC receive path
    if (!cached) pkt.invalidate_view();
    g_sink = g_sink + (parse_roce(pkt, /*allow_trimmed=*/true) ? 1u : 0u);  // dumper
  };
  Table hop_table({"frame", "uncached", "cached", "speedup"});
  double hop_speedup = 0;
  for (const std::uint32_t payload : {192u, 952u}) {
    Packet uncached_pkt = make_frame(payload);
    Packet cached_pkt = make_frame(payload);
    const double uncached_rate = throughput(
        [&] { run_chain(uncached_pkt, /*cached=*/false); });
    const double cached_rate =
        throughput([&] { run_chain(cached_pkt, /*cached=*/true); });
    check.expect(uncached_pkt.bytes == cached_pkt.bytes,
                 "hop chain leaves identical bytes at payload " +
                     std::to_string(payload));
    // The cached packet's view must still match a fresh decode.
    Packet fresh;
    fresh.bytes = cached_pkt.bytes;
    check.expect(parse_roce(fresh, true).value_or(RoceView{}) ==
                     parse_roce(cached_pkt, true).value_or(RoceView{}),
                 "cached view equals fresh decode at payload " +
                     std::to_string(payload));
    report.deterministic.counters["hop_digest_" + std::to_string(payload)] =
        fnv1a_bytes(cached_pkt.bytes);
    const double speedup = cached_rate / uncached_rate;
    hop_speedup = std::max(hop_speedup, speedup);
    hop_table.add_row({std::to_string(cached_pkt.size()) + "B",
                       fmt("%.2f", uncached_rate / 1e6),
                       fmt("%.2f", cached_rate / 1e6), fmt("%.2fx", speedup)});
    report.wall["hop_speedup_" + std::to_string(payload)] = speedup;
  }
  hop_table.print();

  // ---- Workload 3: incremental MigReq patch ----------------------------
  subheading("migreq: incremental trailer patch vs full recompute (Mops/s)");
  Table migreq_table({"frame", "recompute", "incremental", "speedup"});
  for (const std::uint32_t payload : {192u, 4024u}) {
    Packet full_pkt = make_frame(payload);
    Packet incr_pkt = make_frame(payload);
    bool full_flag = false;
    bool incr_flag = false;
    const double full_rate = throughput([&] {
      // Pre-cache behavior: flag write plus a whole-frame recompute.
      full_pkt.bytes[off::kBthFlags] =
          static_cast<std::uint8_t>(full_flag ? 0x40 : 0x00);
      full_pkt.invalidate_view();
      refresh_icrc(full_pkt);
      full_flag = !full_flag;
    });
    const double incr_rate = throughput([&] {
      set_mig_req(incr_pkt, incr_flag);
      incr_flag = !incr_flag;
    });
    // Both toggles ran an even number of... not necessarily: align states
    // explicitly, then the frames must agree bit for bit.
    set_mig_req(incr_pkt, true);
    full_pkt.bytes[off::kBthFlags] = 0x40;
    full_pkt.invalidate_view();
    refresh_icrc(full_pkt);
    check.expect(full_pkt.bytes == incr_pkt.bytes,
                 "incremental patch equals recompute at payload " +
                     std::to_string(payload));
    report.deterministic.counters["migreq_digest_" +
                                  std::to_string(payload)] =
        fnv1a_bytes(incr_pkt.bytes);
    migreq_table.add_row(
        {std::to_string(incr_pkt.size()) + "B", fmt("%.2f", full_rate / 1e6),
         fmt("%.2f", incr_rate / 1e6),
         fmt("%.2fx", incr_rate / full_rate)});
    report.wall["migreq_speedup_" + std::to_string(payload)] =
        incr_rate / full_rate;
  }
  migreq_table.print();

  // ---- Workload 4: CLMUL-folded vs slice-by-8 crc32_update --------------
  subheading("clmul: CLMUL-folded vs slice-by-8 over 64 frames (Mframes/s)");
  std::printf("CLMUL supported at runtime: %s\n",
              crc32_clmul_supported() ? "yes" : "no");
  Table clmul_table({"frame", "slice8", "clmul", "speedup"});
  for (const std::uint32_t payload : {0u, 192u, 952u, 4024u}) {
    std::vector<Packet> frames;
    for (std::uint32_t j = 0; j < 64; ++j) {
      frames.push_back(make_frame(payload, 0x2000 + j));
    }
    // Exact equality of the two engines on every frame, plus the last
    // frame's CRC as a machine-independent baseline counter.
    std::uint32_t crc = 0;
    bool all_equal = true;
    for (const Packet& pkt : frames) {
      const std::uint32_t slice = crc32_update_slice8(kCrcInit, pkt.span());
      all_equal = all_equal &&
                  slice == crc32_update_clmul(kCrcInit, pkt.span());
      crc = slice;
    }
    check.expect(all_equal, "clmul == slice8 on every frame at payload " +
                                std::to_string(payload));
    report.deterministic.counters["icrc_crc_p" + std::to_string(payload)] =
        crc;

    const auto batch_rate = [&frames](auto&& engine) {
      return throughput([&] {
               std::uint32_t acc = 0;
               for (const Packet& pkt : frames) {
                 acc ^= engine(kCrcInit, pkt.span());
               }
               g_sink = acc;
             }) *
             static_cast<double>(frames.size());
    };
    const double slice_rate =
        batch_rate([](std::uint32_t s, std::span<const std::uint8_t> d) {
          return crc32_update_slice8(s, d);
        });
    const double clmul_rate =
        batch_rate([](std::uint32_t s, std::span<const std::uint8_t> d) {
          return crc32_update_clmul(s, d);
        });
    const double speedup = clmul_rate / slice_rate;
    clmul_table.add_row({std::to_string(frames[0].size()) + "B",
                         fmt("%.2f", slice_rate / 1e6),
                         fmt("%.2f", clmul_rate / 1e6),
                         fmt("%.2fx", speedup)});
    report.wall["icrc_speedup_p" + std::to_string(payload)] = speedup;
  }
  clmul_table.print();

  // ---- Workload 5: one-pass frame builder -------------------------------
  subheading("build: one-pass builder vs byte-at-a-time reference "
             "(Mframes/s)");
  Table build_table({"frame", "reference", "one-pass", "speedup"});
  {
    // Frames recycle through an arena, as on the simulated wire, so both
    // builders run on warm buffers and the table measures byte work.
    PacketArena arena;
    PacketArena::Scope scope(&arena);
    for (const std::uint32_t payload : payloads) {
      const std::vector<RocePacketSpec> sweep = build_sweep(payload);
      std::uint64_t digest = 0xcbf29ce484222325ULL;
      bool all_equal = true;
      for (const RocePacketSpec& spec : sweep) {
        Packet fast = build_roce_packet(spec);
        Packet ref = build_roce_packet_reference(spec);
        all_equal = all_equal && fast.bytes == ref.bytes;
        for (const std::uint8_t byte : fast.bytes) {
          digest = (digest ^ byte) * 0x100000001b3ULL;
        }
        PacketArena::reclaim(std::move(fast));
        PacketArena::reclaim(std::move(ref));
      }
      check.expect(all_equal, "one-pass builder == reference at payload " +
                                  std::to_string(payload));
      // Report counters parse back as int64: keep the digest in range.
      report.deterministic.counters["build_digest_p" +
                                    std::to_string(payload)] =
          digest & 0x7fffffffffffffffULL;

      const auto sweep_rate = [&sweep](auto&& build) {
        return throughput([&] {
                 std::uint32_t acc = 0;
                 for (const RocePacketSpec& spec : sweep) {
                   Packet pkt = build(spec);
                   acc += pkt.bytes.back();
                   PacketArena::reclaim(std::move(pkt));
                 }
                 g_sink = acc;
               }) *
               static_cast<double>(sweep.size());
      };
      const double ref_rate = sweep_rate(build_roce_packet_reference);
      const double fast_rate = sweep_rate(build_roce_packet);
      const double speedup = fast_rate / ref_rate;
      build_table.add_row({"p" + std::to_string(payload),
                           fmt("%.2f", ref_rate / 1e6),
                           fmt("%.2f", fast_rate / 1e6),
                           fmt("%.2fx", speedup)});
      report.wall["build_speedup_p" + std::to_string(payload)] = speedup;
    }
  }
  build_table.print();

  // Documented floors (docs/campaigns.md, bench-gate section). Generous
  // margins below the typically-observed speedups so shared CI runners
  // don't flake, but tight enough to catch the fast path silently
  // regressing to the reference.
  check.expect(icrc_speedup_1k >= 3.0,
               "compute_icrc >= 3x reference on 1KiB+ frames (" +
                   fmt("%.1f", icrc_speedup_1k) + "x)");
  check.expect(hop_speedup >= 2.0,
               "cached hop chain >= 2x uncached (" + fmt("%.1f", hop_speedup) +
                   "x)");

  if (!report_out.empty()) {
    std::string failed;
    if (!telemetry::write_report(report, report_out, &failed)) {
      std::fprintf(stderr, "error: failed to write %s\n", failed.c_str());
      return 2;
    }
    std::printf("\nreport written to %s\n", report_out.c_str());
  }

  return check.print_and_exit_code();
}
