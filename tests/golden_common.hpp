// Golden-file checks: an exported artifact (JSON, summary table, fault log)
// must match the committed copy under tests/golden/ byte for byte.
//
// On a mismatch the actual output is written next to the test binary's
// working directory as `<name>.actual`, so the difference can be inspected
// with any diff tool. A golden file changes only when the simulated machine
// is meant to change: review the diff, then copy the .actual file over it.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#ifndef GRAPHENE_GOLDEN_DIR
#error "GRAPHENE_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace graphene::golden {

inline void expectMatches(const std::string& name,
                          const std::string& actual) {
  const std::string path = std::string(GRAPHENE_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.is_open() && expected == actual) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  if (!in.is_open()) {
    ADD_FAILURE() << "golden file " << path << " is missing; wrote "
                  << name << ".actual";
    return;
  }
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  ADD_FAILURE() << "output differs from " << path << " at byte " << at
                << " (golden " << expected.size() << " bytes, actual "
                << actual.size() << "); wrote " << name << ".actual";
}

}  // namespace graphene::golden
