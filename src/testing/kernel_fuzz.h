// Kernel differential fuzzing: random expression trees executed on the
// batch engine (which calls the expression kernels) and on the row
// engine, with rows required to be bitwise identical and simulated
// charges equal (DESIGN.md §15).

#ifndef VDB_TESTING_KERNEL_FUZZ_H_
#define VDB_TESTING_KERNEL_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vdb::fuzz {

/// Counters accumulated over a kernel-fuzz campaign.
struct KernelFuzzStats {
  uint64_t queries = 0;
  uint64_t matched = 0;
  /// Engine rejected the statement (NotSupported) or every configuration
  /// agreed to fail with the same error code.
  uint64_t skipped = 0;

  std::string ToString() const;
};

/// Runs the kernel differential for one seed: materializes a random
/// schema plus a batch-boundary-crossing "kernel stress" table of
/// adversarial numeric columns, generates random expression trees (both
/// the generic SQL generator's and kernel-shaped templates — col/const
/// compares, col/col compares, fused arithmetic), and executes each
/// statement on the batch engine and on the row engine. Rows must be
/// bitwise identical (doubles compared by bit pattern, ordering
/// included) and the simulated charges (elapsed / cpu / io seconds,
/// physical reads) equal within the differential harness's tolerance.
/// Returns one description per violation.
std::vector<std::string> RunKernelFuzzSeed(uint64_t seed,
                                           KernelFuzzStats* stats);

}  // namespace vdb::fuzz

#endif  // VDB_TESTING_KERNEL_FUZZ_H_
