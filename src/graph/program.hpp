// The execution schedule: a tree of program steps.
//
// Poplar programs execute compute sets, copy tensors, and perform control
// flow (§II-A). TensorDSL's control-flow stack (§III-B) builds exactly this
// tree during symbolic execution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/codelet.hpp"
#include "graph/tensor.hpp"

namespace graphene::graph {

struct Program;
using ProgramPtr = std::shared_ptr<Program>;

/// One blockwise copy: `count` contiguous elements starting at `srcBegin` in
/// `srcTile`'s region of `src`, delivered to every destination (broadcast
/// when there are several). Consistent intra-region ordering (§IV) is what
/// makes a single segment per region pair possible.
struct CopySegment {
  TensorId src = kInvalidTensor;
  std::size_t srcTile = 0;
  std::size_t srcBegin = 0;
  TensorId dst = kInvalidTensor;
  struct Destination {
    std::size_t tile = 0;
    std::size_t begin = 0;
  };
  std::vector<Destination> dsts;
  std::size_t count = 0;
};

struct Program {
  enum class Kind {
    Sequence,      // children in order
    Execute,      // one compute set (a BSP compute superstep)
    Copy,         // an exchange superstep made of blockwise segments
    Repeat,       // fixed-count loop
    RepeatWhile,  // run cond-program, test condTensor, run body, repeat
    If,           // run cond-program once, branch on condTensor
    HostCall,     // CPU callback (progress reporting, host IO)
  };

  Kind kind = Kind::Sequence;

  // Sequence
  std::vector<ProgramPtr> children;

  // Execute
  ComputeSetId computeSet = 0;

  // Copy
  std::vector<CopySegment> copies;
  /// Counters ticked into Profile::metrics each time this copy executes
  /// (e.g. {"halo.bytes", wire bytes}). Usually empty.
  std::vector<std::pair<std::string, double>> copyMetrics;

  // Repeat
  std::size_t repeatCount = 0;
  ProgramPtr body;

  // RepeatWhile / If: `condProgram` computes the condition into `condTensor`
  // (a replicated scalar); element 0 decides.
  ProgramPtr condProgram;
  TensorId condTensor = kInvalidTensor;
  ProgramPtr thenBody;
  ProgramPtr elseBody;

  // HostCall
  std::function<void(Engine&)> hostFn;

  // -- factories ------------------------------------------------------------
  static ProgramPtr sequence() {
    auto p = std::make_shared<Program>();
    p->kind = Kind::Sequence;
    return p;
  }
  static ProgramPtr execute(ComputeSetId cs) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::Execute;
    p->computeSet = cs;
    return p;
  }
  static ProgramPtr copy(std::vector<CopySegment> segments) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::Copy;
    p->copies = std::move(segments);
    return p;
  }
  static ProgramPtr repeat(std::size_t n, ProgramPtr body) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::Repeat;
    p->repeatCount = n;
    p->body = std::move(body);
    return p;
  }
  static ProgramPtr repeatWhile(ProgramPtr condProgram, TensorId condTensor,
                                ProgramPtr body) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::RepeatWhile;
    p->condProgram = std::move(condProgram);
    p->condTensor = condTensor;
    p->body = std::move(body);
    return p;
  }
  static ProgramPtr branch(ProgramPtr condProgram, TensorId condTensor,
                           ProgramPtr thenBody, ProgramPtr elseBody) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::If;
    p->condProgram = std::move(condProgram);
    p->condTensor = condTensor;
    p->thenBody = std::move(thenBody);
    p->elseBody = std::move(elseBody);
    return p;
  }
  static ProgramPtr hostCall(std::function<void(Engine&)> fn) {
    auto p = std::make_shared<Program>();
    p->kind = Kind::HostCall;
    p->hostFn = std::move(fn);
    return p;
  }

  /// Number of program steps in the tree (schedule size metric; the paper
  /// §III-C reduces this via lazy materialisation).
  std::size_t stepCount() const {
    std::size_t n = 1;
    for (const auto& c : children) n += c ? c->stepCount() : 0;
    if (body) n += body->stepCount();
    if (condProgram) n += condProgram->stepCount();
    if (thenBody) n += thenBody->stepCount();
    if (elseBody) n += elseBody->stepCount();
    return n;
  }
};

}  // namespace graphene::graph
