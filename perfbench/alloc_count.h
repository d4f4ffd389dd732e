// Heap-allocation counters for the stack benchmark. alloc_count.cpp
// replaces the global operator new/delete of the benchmark binary (and only
// of that binary); counting is off until enabled, so the benchmark charges
// exactly the code it brackets — the System::run_until calls of a traced
// run.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocStats {
  std::uint64_t calls = 0;  // operator new calls while counting
  std::uint64_t bytes = 0;  // bytes those calls requested
};

void set_alloc_counting(bool on);
[[nodiscard]] AllocStats alloc_stats();

}  // namespace perfbench
