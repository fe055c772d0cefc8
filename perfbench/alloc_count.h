// Heap-allocation counter for the traced run. alloc_count.cc replaces the
// global operator new/delete of the benchmark binary; allocations are only
// counted while counting is switched on, which the traced run does around
// Orchestrator::run() alone.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
/// Allocations counted since the process started.
std::uint64_t alloc_count();

}  // namespace perfbench
