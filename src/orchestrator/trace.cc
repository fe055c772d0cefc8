#include "orchestrator/trace.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace lumina {

std::string IntegrityReport::to_string() const {
  std::ostringstream out;
  out << (ok() ? "OK" : "FAILED") << " (trace=" << trace_packets
      << ", mirrored=" << injector_mirrored << ", roce_rx=" << injector_roce_rx
      << ", consecutive=" << (seqnums_consecutive ? "yes" : "no")
      << ", missing=" << missing_seqnums << ")";
  return out.str();
}

bool restore_mirror_order(CaptureStore& records) {
  const auto seq_less = [](const TracePacket& a, const TracePacket& b) {
    return a.meta.mirror_seq < b.meta.mirror_seq;
  };
  const auto first = records.begin();
  const std::size_t n = records.size();
  // Insertion pass: [0, i) is sorted. A record that arrived behind records
  // mirrored after it moves back in front of them, and they each shift up
  // one slot. The shifts are budgeted so near-sorted input costs O(n).
  std::size_t budget = n;
  std::size_t i = 1;
  for (; i < n; ++i) {
    if (!seq_less(records[i], records[i - 1])) continue;
    const auto slot = std::upper_bound(first, first + i, records[i], seq_less);
    const auto displaced = static_cast<std::size_t>(first + i - slot);
    if (displaced > budget) break;
    budget -= displaced;
    TracePacket late = std::move(records[i]);
    std::move_backward(slot, first + i, first + i + 1);
    *slot = std::move(late);
  }
  if (i >= n) return false;

  // Fallback: sort (mirror_seq, position) keys, 16 B per record, so ties
  // keep store order, then apply the permutation cycle by cycle, moving
  // each record once.
  std::vector<std::pair<std::uint64_t, std::size_t>> keys(n);
  for (std::size_t k = 0; k < n; ++k) {
    keys[k] = {records[k].meta.mirror_seq, k};
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t start = 0; start < n; ++start) {
    if (keys[start].second == start) continue;
    TracePacket held = std::move(records[start]);
    std::size_t at = start;
    for (;;) {
      const std::size_t from = keys[at].second;
      keys[at].second = at;
      if (from == start) break;
      records[at] = std::move(records[from]);
      at = from;
    }
    records[at] = std::move(held);
  }
  return true;
}

}  // namespace lumina
