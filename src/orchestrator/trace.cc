#include "orchestrator/trace.h"

#include <algorithm>
#include <ranges>
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
  const std::size_t n = records.size();
  // Insertion pass: [0, i) is sorted. A record that arrived behind records
  // mirrored after it moves back in front of them, and they each shift up
  // one slot. The shifts are budgeted so near-sorted input costs O(n).
  std::size_t budget = n;
  std::size_t i = 1;
  for (; i < n; ++i) {
    const std::uint64_t seq = records[i].meta.mirror_seq;
    if (seq >= records[i - 1].meta.mirror_seq) continue;
    // Upper bound of seq in [0, i): the late record goes after its ties.
    const std::size_t slot = *std::ranges::upper_bound(
        std::views::iota(std::size_t{0}, i), seq, {},
        [&](std::size_t k) { return records[k].meta.mirror_seq; });
    const std::size_t displaced = i - slot;
    if (displaced > budget) break;
    budget -= displaced;
    TracePacket late = std::move(records[i]);
    for (std::size_t j = i; j > slot; --j) {
      records[j] = std::move(records[j - 1]);
    }
    records[slot] = std::move(late);
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
