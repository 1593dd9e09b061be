#include "graph/compiler.hpp"

namespace graphene::graph {

namespace {

void analyze(const ProgramPtr& p, ProgramStats& stats) {
  if (!p) return;
  ++stats.totalSteps;
  switch (p->kind) {
    case Program::Kind::Sequence:
      ++stats.sequenceSteps;
      for (const auto& c : p->children) analyze(c, stats);
      break;
    case Program::Kind::Execute:
      ++stats.executeSteps;
      break;
    case Program::Kind::Copy:
      ++stats.copySteps;
      stats.copySegments += p->copies.size();
      break;
    case Program::Kind::Repeat:
      ++stats.repeatSteps;
      analyze(p->body, stats);
      break;
    case Program::Kind::RepeatWhile:
      ++stats.whileSteps;
      analyze(p->condProgram, stats);
      analyze(p->body, stats);
      break;
    case Program::Kind::If:
      ++stats.ifSteps;
      analyze(p->condProgram, stats);
      analyze(p->thenBody, stats);
      analyze(p->elseBody, stats);
      break;
    case Program::Kind::HostCall:
      ++stats.hostCallSteps;
      break;
  }
}

/// Structure-preserving rewrite: applies `rewriteSequence` to every Sequence
/// node bottom-up.
template <typename Fn>
ProgramPtr rewrite(const ProgramPtr& p, const Fn& rewriteSequence) {
  if (!p) return nullptr;
  auto out = std::make_shared<Program>(*p);
  switch (p->kind) {
    case Program::Kind::Sequence: {
      out->children.clear();
      for (const auto& c : p->children) {
        out->children.push_back(rewrite(c, rewriteSequence));
      }
      rewriteSequence(*out);
      break;
    }
    case Program::Kind::Repeat:
      out->body = rewrite(p->body, rewriteSequence);
      break;
    case Program::Kind::RepeatWhile:
      out->condProgram = rewrite(p->condProgram, rewriteSequence);
      out->body = rewrite(p->body, rewriteSequence);
      break;
    case Program::Kind::If:
      out->condProgram = rewrite(p->condProgram, rewriteSequence);
      out->thenBody = rewrite(p->thenBody, rewriteSequence);
      out->elseBody = rewrite(p->elseBody, rewriteSequence);
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

ProgramStats analyzeProgram(const ProgramPtr& program) {
  ProgramStats stats;
  analyze(program, stats);
  return stats;
}

ProgramPtr coalesceCopies(const ProgramPtr& program) {
  return rewrite(program, [](Program& seq) {
    std::vector<ProgramPtr> merged;
    for (const ProgramPtr& child : seq.children) {
      if (child && child->kind == Program::Kind::Copy && !merged.empty() &&
          merged.back()->kind == Program::Kind::Copy) {
        // Merge into the previous Copy: one exchange superstep instead of
        // two (saves a BSP sync and overlaps the transfers).
        auto combined = std::make_shared<Program>(*merged.back());
        combined->copies.insert(combined->copies.end(),
                                child->copies.begin(), child->copies.end());
        merged.back() = combined;
      } else {
        merged.push_back(child);
      }
    }
    seq.children = std::move(merged);
  });
}

ProgramPtr flattenSequences(const ProgramPtr& program) {
  return rewrite(program, [](Program& seq) {
    std::vector<ProgramPtr> flat;
    for (const ProgramPtr& child : seq.children) {
      if (child && child->kind == Program::Kind::Sequence) {
        flat.insert(flat.end(), child->children.begin(),
                    child->children.end());
      } else {
        flat.push_back(child);
      }
    }
    seq.children = std::move(flat);
  });
}

}  // namespace graphene::graph
