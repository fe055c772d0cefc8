// build_roce_packet_reference — the retired byte-at-a-time frame builder,
// kept as the differential oracle for the one-pass build_roce_packet.
//
// It appends every header field one push_back a byte, fills the payload,
// then patches the IPv4 checksum and the iCRC trailer. It leaves the
// frame's parse-view cache kUnknown. The builder differential test
// (tests/unit/packet_test.cc) and bench/packet_fastpath's `build` table
// hold the production builder byte-identical to it.
#pragma once

#include "packet/roce_packet.h"

namespace lumina {

/// Builds the same frame as build_roce_packet(spec), the pre-one-pass way.
Packet build_roce_packet_reference(const RocePacketSpec& spec);

}  // namespace lumina
