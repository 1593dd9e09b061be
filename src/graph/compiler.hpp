// Graph-compilation passes — the simulated analogue of the Poplar compiler's
// program optimisation (§III-A step 3: "The Poplar compiler optimizes the
// dataflow graph and execution schedule. It then generates communication
// schedules...").
//
// Facilities:
//  - coalesceCopies: merges runs of adjacent Copy steps inside a Sequence
//    into one exchange superstep. Every merged pair saves one BSP sync and
//    lets independent transfers overlap in the fabric — this is why the DSL
//    keeping the number of program steps small (§III-C) pays off at run time.
//  - flattenSequences: inlines nested bare Sequence nodes.
//  - analyzeProgram: static schedule statistics (step counts by kind,
//    transfer/byte totals), the numbers the paper's compile-time discussion
//    is about.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "graph/program.hpp"

namespace graphene::graph {

struct ProgramStats {
  std::size_t totalSteps = 0;
  std::size_t executeSteps = 0;
  std::size_t copySteps = 0;
  std::size_t repeatSteps = 0;
  std::size_t whileSteps = 0;
  std::size_t ifSteps = 0;
  std::size_t hostCallSteps = 0;
  std::size_t sequenceSteps = 0;
  /// Static transfer segments and payload bytes across all Copy steps
  /// (communication-program size, §IV benefit #1). Bytes assume float32
  /// elements when tensor types are unknown to the analyzer caller.
  std::size_t copySegments = 0;
};

/// Collects static statistics over a program tree.
ProgramStats analyzeProgram(const ProgramPtr& program);

/// Returns a new program tree where adjacent Copy steps within each Sequence
/// are merged into single exchange supersteps. Safe for halo-exchange-style
/// copies whose segments target disjoint destinations; segments are
/// concatenated in order.
ProgramPtr coalesceCopies(const ProgramPtr& program);

/// Returns a new program tree with nested bare Sequences inlined into their
/// parents (smaller schedule, same semantics).
ProgramPtr flattenSequences(const ProgramPtr& program);

}  // namespace graphene::graph
