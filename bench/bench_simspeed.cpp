// Simulator throughput bench: wall-clock speed of the simulator itself
// (vertices/sec and solver iterations/sec), not simulated-device speed.
//
// Tracks the host-side execution engine across PRs: compiled execution
// plans, codelet fast paths, and host-parallel tile execution all move
// these numbers. Emits a JSON summary to stdout (saved as
// BENCH_SIMSPEED.json at the repo root) so the trajectory is recorded.
// Run metadata (git rev, date) comes in via `--git-rev` / `--date` argv
// flags — see bench_json.hpp; the measurement path makes no wall-clock
// calls other than the timed region itself.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"

namespace {

using namespace graphene;

struct Config {
  std::string solver;
  std::size_t rows;
  std::size_t tiles;
  std::size_t iterations;  // CG/BiCGStab iterations / MPIR refinements
};

struct Result {
  std::string solver;
  std::size_t hostThreads = 1;
  double seconds = 0;
  double verticesPerSec = 0;
  double itersPerSec = 0;
  std::size_t supersteps = 0;
};

Result runOnce(const Config& cfg, std::size_t hostThreads) {
  auto g = matrix::poisson2d5(cfg.rows, cfg.rows);
  ipu::IpuTarget target = ipu::IpuTarget::testTarget(cfg.tiles);
  bench::DistSystem s = bench::makeSystem(g, target);
  dsl::Tensor x = s.A->makeVector(dsl::DType::Float32, "x");
  dsl::Tensor b = s.A->makeVector(dsl::DType::Float32, "b");

  std::unique_ptr<solver::Solver> slv;
  std::size_t iters = cfg.iterations;
  if (cfg.solver == "cg") {
    slv = std::make_unique<solver::CgSolver>(
        cfg.iterations, 0.0, std::make_unique<solver::JacobiSolver>(2));
  } else if (cfg.solver == "bicgstab-ilu") {
    // Level-set ILU(0): factorisation plus two triangular solves per
    // iteration, the branchy row kernels of the compiled ParFor VM.
    slv = std::make_unique<solver::BiCgStabSolver>(
        cfg.iterations, 0.0, std::make_unique<solver::IluSolver>());
  } else {
    slv = std::make_unique<solver::MpirSolver>(
        ipu::DType::DoubleWord, cfg.iterations, 0.0,
        std::make_unique<solver::CgSolver>(
            10, 0.0, std::make_unique<solver::IdentitySolver>()));
    iters = cfg.iterations * 10;  // inner iterations dominate
  }
  slv->apply(*s.A, x, b);

  auto rhs = bench::randomRhs(g.matrix.rows(), 7);
  s.engine = std::make_unique<graph::Engine>(s.ctx->graph(), hostThreads);
  s.A->upload(*s.engine);
  s.A->writeVector(*s.engine, b, rhs);

  auto t0 = std::chrono::steady_clock::now();
  s.engine->run(s.ctx->program());
  auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.solver = cfg.solver;
  r.hostThreads = hostThreads;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.supersteps = s.engine->profile().computeSupersteps;
  r.verticesPerSec =
      static_cast<double>(s.engine->profile().verticesExecuted) / r.seconds;
  r.itersPerSec = static_cast<double>(iters) / r.seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Config> configs = {
      {"cg", 48, 16, 40},
      {"mpir", 48, 16, 3},
      {"bicgstab-ilu", 48, 16, 15},
  };

  // 1 thread isolates the plan-cache + fast-path gains; the ladder up to
  // hardware_concurrency measures tile-parallel scaling (flat on 1-core
  // hosts by definition).
  std::vector<std::size_t> threadCounts = {1, 2, 4};
  const std::size_t hw = std::thread::hardware_concurrency() > 0
                             ? std::thread::hardware_concurrency()
                             : 1;
  if (hw > 4) threadCounts.push_back(hw);

  bench::BenchMeta meta = bench::parseBenchMeta(argc, argv);
  meta.tiles = configs.front().tiles;
  // The real host concurrency the ladder ran against. Rows still sweep their
  // own hostThreads; ones exceeding the core count are marked `saturated`
  // below so readers (and the perf gate) don't misread an oversubscribed
  // flat line as a scaling failure.
  meta.hostThreads = hw;
  bench::BenchReport report("simspeed", meta);
  report.setField("hardwareConcurrency", hw);

  for (const Config& cfg : configs) {
    for (std::size_t threads : threadCounts) {
      Result r = runOnce(cfg, threads);
      json::Object row;
      row["solver"] = r.solver;
      row["hostThreads"] = r.hostThreads;
      row["seconds"] = r.seconds;
      row["supersteps"] = r.supersteps;
      row["itersPerSec"] = r.itersPerSec;
      row["verticesPerSec"] = r.verticesPerSec;
      if (threads > hw) row["saturated"] = true;
      report.addResult(std::move(row));
    }
  }
  std::printf("%s\n", report.dump().c_str());
  return 0;
}
