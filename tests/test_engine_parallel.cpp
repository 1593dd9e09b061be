// Host-parallel tile execution must be invisible to the simulated machine.
//
// The engine may simulate the tiles of a compute superstep on any number of
// host threads; tiles are independent between BSP syncs, so every observable
// — tensor bytes, cycle profile, superstep counts, fault logs — must be
// bit-identical to the serial schedule. These tests run the same solves at
// numHostThreads 1 and 8 (through full CG RepeatWhile loops with host
// convergence callbacks, with and without an attached fault plan) and assert
// exactly that. The compiled-codelet fast paths get the same treatment:
// bulk span kernels vs the generic statement walk must agree bit-for-bit in
// both results and charged cycles. On a small hand-checkable graph, attached
// observers (trace sink, fault plan, tile profile), cached execution and
// exchange plans, and excluded tiles are held to the same standard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "dsl/interpreter.hpp"
#include "graph/engine.hpp"
#include "graph/graph.hpp"
#include "ipu/fault.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Tensor;

namespace {

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct SolveObservables {
  std::vector<double> x;
  ipu::Profile profile;
};

/// Builds a fresh graph for `solverJson` on A x = b and executes it with the
/// given host thread count (fresh context per run: host callbacks close over
/// per-solver state, so engines must not share a program).
SolveObservables runSolve(const matrix::GeneratedMatrix& g, std::size_t tiles,
                          const std::string& solverJson,
                          std::size_t hostThreads, ipu::FaultPlan* plan) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  auto layout =
      partition::Partitioner(ipu::Topology::singleIpu(tiles)).layout(g);
  DistMatrix A(g.matrix, std::move(layout));
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(solverJson);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph(), hostThreads);
  EXPECT_EQ(engine.numHostThreads(), hostThreads);
  if (plan != nullptr) {
    plan->reset();
    engine.setFaultPlan(plan);
  }
  A.upload(engine);
  auto bHost = randomVector(g.matrix.rows(), 42);
  for (double& v : bHost) v = static_cast<double>(static_cast<float>(v));
  A.writeVector(engine, b, bHost);
  engine.run(ctx.program());

  SolveObservables out;
  out.x = A.readVector(engine, x);
  out.profile = engine.profile();
  return out;
}

/// Field-by-field exact comparison (doubles compared with ==: the runs must
/// charge literally the same cycles, not merely close ones).
void expectProfilesIdentical(const ipu::Profile& a, const ipu::Profile& b) {
  EXPECT_EQ(a.computeCycles.size(), b.computeCycles.size());
  for (const auto& [category, cycles] : a.computeCycles) {
    auto it = b.computeCycles.find(category);
    ASSERT_NE(it, b.computeCycles.end()) << "missing category " << category;
    EXPECT_EQ(cycles, it->second) << "cycles differ in " << category;
  }
  EXPECT_EQ(a.exchangeCycles, b.exchangeCycles);
  EXPECT_EQ(a.exchangeIntraCycles, b.exchangeIntraCycles);
  EXPECT_EQ(a.exchangeInterCycles, b.exchangeInterCycles);
  EXPECT_EQ(a.syncCycles, b.syncCycles);
  EXPECT_EQ(a.computeSupersteps, b.computeSupersteps);
  EXPECT_EQ(a.exchangeSupersteps, b.exchangeSupersteps);
  EXPECT_EQ(a.exchangeInstructions, b.exchangeInstructions);
  EXPECT_EQ(a.exchangedBytes, b.exchangedBytes);
  EXPECT_EQ(a.interIpuBytes, b.interIpuBytes);
  EXPECT_EQ(a.interIpuMessages, b.interIpuMessages);
  EXPECT_EQ(a.verticesExecuted, b.verticesExecuted);
  EXPECT_TRUE(a.superstepStats == b.superstepStats);
  EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
  EXPECT_EQ(a.metrics.gauges(), b.metrics.gauges());
  ASSERT_EQ(a.faultEvents.size(), b.faultEvents.size());
  for (std::size_t i = 0; i < a.faultEvents.size(); ++i) {
    EXPECT_TRUE(a.faultEvents[i] == b.faultEvents[i])
        << "fault event " << i << " differs: " << a.faultEvents[i].kind
        << " vs " << b.faultEvents[i].kind;
  }
}

const char* kCgJson = R"({
  "type": "cg", "maxIterations": 200, "tolerance": 1e-6,
  "preconditioner": {"type": "jacobi", "iterations": 2}
})";

/// A two-tile graph whose compute sets rewrite every element of `data` as
/// x = 2x + k: order-sensitive, so any reordering of supersteps or tiles
/// would change the result bits, and small enough to check by hand.
struct TestRig {
  graph::Graph g{ipu::IpuTarget::testTarget(2)};
  graph::TensorId data = graph::kInvalidTensor;

  TestRig() {
    graph::TensorInfo info;
    info.name = "data";
    info.dtype = ipu::DType::Float32;
    info.mapping = graph::TileMapping::linear(8, 2);
    data = g.addTensor(std::move(info));
  }

  /// Appends one x = 2x + k vertex over `tile`'s slice of `data` to `cs`.
  void addVertex(graph::ComputeSetId cs, std::size_t tile, float k) {
    graph::CodeletId c = g.addCodelet(graph::Codelet{
        "affine", [k](graph::VertexContext& ctx) {
          auto s = ctx.floatSpan(0);
          for (float& x : s) x = 2.0f * x + k;
          return graph::VertexCost{static_cast<double>(s.size()) * 3.0, false};
        }});
    graph::Vertex vx;
    vx.codelet = c;
    vx.tile = tile;
    vx.args.push_back(graph::TensorSlice{data, tile, 0, 4});
    g.addVertex(cs, vx);
  }

  /// Adds a compute set with one x = 2x + k vertex per tile.
  graph::ComputeSetId addStep(float k) {
    graph::ComputeSetId cs = g.addComputeSet("step");
    for (std::size_t tile = 0; tile < 2; ++tile) addVertex(cs, tile, k);
    return cs;
  }

  graph::CopySegment haloSeg(std::size_t srcTile, std::size_t dstTile) {
    graph::CopySegment s;
    s.src = data;
    s.srcTile = srcTile;
    s.srcBegin = 0;
    s.dst = data;
    s.dsts.push_back({dstTile, 2});
    s.count = 2;
    return s;
  }

  std::vector<float> runOn(graph::Engine& e, const graph::ProgramPtr& p) {
    e.writeTensor<float>(data, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
    e.run(p);
    return e.readTensor<float>(data);
  }
};

}  // namespace

TEST(ParallelEngine, BitIdenticalToSerial) {
  auto g = matrix::poisson2d5(24, 24);
  SolveObservables serial = runSolve(g, 8, kCgJson, 1, nullptr);
  SolveObservables parallel = runSolve(g, 8, kCgJson, 8, nullptr);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
  EXPECT_GT(serial.profile.verticesExecuted, 0u);
}

TEST(ParallelEngine, BitIdenticalWithFaultPlanAttached) {
  auto g = matrix::poisson2d5(20, 20);
  // A stall (lands on the critical path of one superstep) plus bit flips in
  // the CG residual (forces the self-healing restart path): the recovery
  // timeline itself must not depend on the host schedule.
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 11,
    "faults": [
      {"type": "stall", "tile": 1, "cycles": 5000, "superstep": 7},
      {"type": "bitflip", "tensor": "cg_resid", "bit": 30, "count": 2,
       "skip": 30}
    ]
  })");
  SolveObservables serial = runSolve(g, 8, kCgJson, 1, &plan);
  SolveObservables parallel = runSolve(g, 8, kCgJson, 8, &plan);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
  EXPECT_FALSE(serial.profile.faultEvents.empty());
}

TEST(ParallelEngine, FastPathMatchesGenericWalk) {
  // Jacobi-CG on a Poisson grid, and the level-set ILU(0) / DILU codelets —
  // whose row kernels hold If/While — on a small FEM stand-in, alone and
  // under double-word MPIR.
  const auto poisson = matrix::poisson2d5(16, 16);
  const auto fem = matrix::makeBenchmarkMatrix("hook_1498", 400, 50);
  struct Case {
    const char* name;
    const matrix::GeneratedMatrix& g;
    const char* json;
    bool ilu;
  };
  const Case cases[] = {
      {"cg-jacobi", poisson, kCgJson, false},
      {"bicgstab-ilu0", fem, R"({
         "type": "bicgstab", "maxIterations": 12, "tolerance": 1e-6,
         "preconditioner": {"type": "ilu"}})", true},
      {"bicgstab-dilu", fem, R"({
         "type": "bicgstab", "maxIterations": 12, "tolerance": 1e-6,
         "preconditioner": {"type": "dilu"}})", true},
      {"mpir-bicgstab-ilu0", fem, R"({
         "type": "mpir", "extendedType": "doubleword", "maxRefinements": 3,
         "tolerance": 1e-12,
         "inner": {"type": "bicgstab", "maxIterations": 6, "tolerance": 1e-3,
                   "preconditioner": {"type": "ilu"}}})", true},
  };
  // Force both modes explicitly so the A/B holds even when the whole suite
  // runs under GRAPHENE_NO_FASTPATH=1 (the CI oracle job).
  const bool envFastPaths = dsl::codeletFastPathsEnabled();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    dsl::setCodeletFastPaths(true);
    SolveObservables fast = runSolve(c.g, 4, c.json, 1, nullptr);
    dsl::setCodeletFastPaths(false);
    SolveObservables generic = runSolve(c.g, 4, c.json, 1, nullptr);
    dsl::setCodeletFastPaths(envFastPaths);

    ASSERT_EQ(fast.x.size(), generic.x.size());
    for (std::size_t i = 0; i < fast.x.size(); ++i) {
      EXPECT_EQ(fast.x[i], generic.x[i]) << "element " << i;
    }
    expectProfilesIdentical(fast.profile, generic.profile);
    if (c.ilu) {
      EXPECT_GT(fast.profile.computeCycles.at("ilu_solve"), 0.0);
      EXPECT_GT(fast.profile.computeCycles.at("ilu_factorize"), 0.0);
    }
  }
}

TEST(ParallelEngine, MixedPrecisionBitIdenticalToSerial) {
  auto g = matrix::poisson2d5(16, 16);
  const char* mpirJson = R"({
    "type": "mpir", "extendedType": "doubleword",
    "maxRefinements": 4, "tolerance": 1e-12,
    "inner": {"type": "cg", "maxIterations": 10, "tolerance": 0}
  })";
  SolveObservables serial = runSolve(g, 8, mpirJson, 1, nullptr);
  SolveObservables parallel = runSolve(g, 8, mpirJson, 8, nullptr);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
}

// ---------------------------------------------------------------------------
// One program walk: observers and cached plans must not change what the
// simulated machine computes or charges.
// ---------------------------------------------------------------------------

TEST(Engine, ObserversLeaveResultsAndProfileUnchanged) {
  // The same program on a bare engine, with a trace sink, and with an empty
  // fault plan (whose exchange hooks see every planned transfer): identical
  // results and profiles, and one trace event per superstep at the same
  // simulated-cycle stamps.
  TestRig rig;
  using graph::Program;
  auto seq = Program::sequence();
  seq->children.push_back(Program::execute(rig.addStep(1.0f)));
  seq->children.push_back(Program::execute(rig.addStep(2.0f)));
  seq->children.push_back(
      Program::copy({rig.haloSeg(0, 1), rig.haloSeg(1, 0)}));
  seq->children.push_back(Program::execute(rig.addStep(3.0f)));

  graph::Engine bare(rig.g, 1);
  const std::vector<float> want = rig.runOn(bare, seq);
  EXPECT_EQ(bare.profile().computeSupersteps, 3u);
  EXPECT_EQ(bare.profile().exchangeSupersteps, 1u);

  support::TraceSink traceA, traceB;
  graph::Engine traced(rig.g, 1);
  traced.setTraceSink(&traceA);
  ipu::FaultPlan empty = ipu::FaultPlan::fromJsonText(R"({"faults": []})");
  graph::Engine guarded(rig.g, 1);
  guarded.setFaultPlan(&empty);
  guarded.setTraceSink(&traceB);
  EXPECT_EQ(rig.runOn(traced, seq), want);
  EXPECT_EQ(rig.runOn(guarded, seq), want);
  expectProfilesIdentical(bare.profile(), traced.profile());
  expectProfilesIdentical(bare.profile(), guarded.profile());
  EXPECT_EQ(traced.simCycles(), bare.simCycles());
  EXPECT_EQ(guarded.simCycles(), bare.simCycles());

  const std::vector<support::TraceEvent> a = traceA.events();
  const std::vector<support::TraceEvent> b = traceB.events();
  auto count = [](const std::vector<support::TraceEvent>& events,
                  support::TraceKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const auto& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(a, support::TraceKind::ComputeSuperstep), 3);
  EXPECT_EQ(count(a, support::TraceKind::ExchangeSuperstep), 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].startCycle, b[i].startCycle) << "event " << i;
    EXPECT_EQ(a[i].durationCycles, b[i].durationCycles) << "event " << i;
  }
}

TEST(Engine, ExecPlanRebuildsWhenComputeSetGrows) {
  // A compute set's cached ExecPlan must rebuild when vertices are appended
  // after a run, not replay the stale vertex list.
  TestRig rig;
  graph::ComputeSetId cs = rig.addStep(1.0f);
  auto prog = graph::Program::execute(cs);
  graph::Engine engine(rig.g, 1);
  EXPECT_EQ(rig.runOn(engine, prog),
            (std::vector<float>{3, 5, 7, 9, 11, 13, 15, 17}));

  // A second vertex on tile 0 runs after the first: x -> 2(2x + 1) + 9.
  rig.addVertex(cs, 0, 9.0f);
  EXPECT_EQ(rig.runOn(engine, prog),
            (std::vector<float>{15, 19, 23, 27, 11, 13, 15, 17}));
  EXPECT_EQ(engine.profile().verticesExecuted, 2u + 3u);
  EXPECT_EQ(engine.profile().computeSupersteps, 2u);
}

TEST(Engine, ExcludedTileKeepsValuesAndChargesNothing) {
  TestRig rig;
  auto seq = graph::Program::sequence();
  seq->children.push_back(graph::Program::execute(rig.addStep(1.0f)));
  seq->children.push_back(graph::Program::execute(rig.addStep(2.0f)));

  graph::Engine full(rig.g, 1);
  rig.runOn(full, seq);
  graph::Engine excluded(rig.g, 1);
  excluded.setExcludedTiles({1});
  const std::vector<float> got = rig.runOn(excluded, seq);
  // Tile 0 ran both steps (x -> 2(2x + 1) + 2); tile 1's slice still holds
  // the uploaded values.
  EXPECT_EQ(got, (std::vector<float>{8, 12, 16, 20, 5, 6, 7, 8}));
  // The excluded tile charges zero cycles: every superstep's fastest tile is
  // at 0, while tile 0 alone still sets the unchanged critical path.
  const support::SuperstepStats& stats =
      excluded.profile().superstepStats.at("step");
  EXPECT_EQ(stats.supersteps, 2u);
  EXPECT_EQ(stats.minCycles, 0.0);
  EXPECT_GT(stats.maxCycles, 0.0);
  EXPECT_EQ(stats.maxCycles,
            full.profile().superstepStats.at("step").maxCycles);
  EXPECT_EQ(excluded.simCycles(), full.simCycles());
}

TEST(Exchange, CopyPlanReplayIsObserverInvariant) {
  // Every Copy step replays its cached plan. Attaching an (empty) fault plan
  // or a tile profile routes the same planned transfers through their hooks
  // without changing any outcome: results and profiles match the bare
  // engine exactly.
  TestRig rig;
  auto seq = graph::Program::sequence();
  seq->children.push_back(
      graph::Program::copy({rig.haloSeg(0, 1), rig.haloSeg(1, 0)}));
  seq->children.push_back(graph::Program::execute(rig.addStep(1.0f)));
  seq->children.push_back(
      graph::Program::copy({rig.haloSeg(0, 1), rig.haloSeg(1, 0)}));

  graph::Engine bare(rig.g, 1);
  ipu::FaultPlan empty = ipu::FaultPlan::fromJsonText(R"({"faults": []})");
  graph::Engine guarded(rig.g, 1);
  guarded.setFaultPlan(&empty);
  support::TileProfile tiles;
  graph::Engine profiled(rig.g, 1);
  profiled.setTileProfile(&tiles);
  const std::vector<float> want = rig.runOn(bare, seq);
  EXPECT_EQ(rig.runOn(guarded, seq), want);
  EXPECT_EQ(rig.runOn(profiled, seq), want);
  expectProfilesIdentical(bare.profile(), guarded.profile());
  expectProfilesIdentical(bare.profile(), profiled.profile());
  EXPECT_GT(bare.profile().exchangedBytes, 0u);

  // Replay: run the same program again — the second pass (a pure cache hit)
  // must charge exactly the same exchange totals, and the tile profile's
  // traffic matrix keeps folding every planned transfer.
  const auto bytesOnce = bare.profile().exchangedBytes;
  const auto cyclesOnce = bare.profile().exchangeCycles;
  for (graph::Engine* e : {&bare, &guarded, &profiled}) rig.runOn(*e, seq);
  EXPECT_EQ(bare.profile().exchangedBytes, 2 * bytesOnce);
  EXPECT_EQ(bare.profile().exchangeCycles, 2 * cyclesOnce);
  expectProfilesIdentical(bare.profile(), guarded.profile());
  expectProfilesIdentical(bare.profile(), profiled.profile());
  EXPECT_EQ(tiles.traffic.totalBytes(),
            static_cast<std::uint64_t>(profiled.profile().exchangedBytes));
  EXPECT_EQ(tiles.exchangeCycles, profiled.profile().exchangeCycles);
  EXPECT_EQ(tiles.exchangeSupersteps, profiled.profile().exchangeSupersteps);
}

TEST(Exchange, ZeroByteExchangeCommitsUnderEveryObserver) {
  // A Copy whose only destination is its own source is a zero-byte exchange
  // superstep: its plan holds no transfer, yet the superstep is still
  // committed (count +1, zero bytes, zero cycles) with or without a fault
  // plan or a tile profile attached.
  TestRig rig;
  graph::CopySegment self;
  self.src = rig.data;
  self.srcTile = 0;
  self.srcBegin = 0;
  self.dst = rig.data;
  self.dsts.push_back({0, 0});
  self.count = 4;
  auto seq = graph::Program::sequence();
  seq->children.push_back(graph::Program::copy({self}));

  graph::Engine bare(rig.g, 1);
  ipu::FaultPlan empty = ipu::FaultPlan::fromJsonText(R"({"faults": []})");
  graph::Engine guarded(rig.g, 1);
  guarded.setFaultPlan(&empty);
  support::TileProfile tiles;
  graph::Engine profiled(rig.g, 1);
  profiled.setTileProfile(&tiles);
  const std::vector<float> want = rig.runOn(bare, seq);
  EXPECT_EQ(rig.runOn(guarded, seq), want);
  EXPECT_EQ(rig.runOn(profiled, seq), want);
  expectProfilesIdentical(bare.profile(), guarded.profile());
  expectProfilesIdentical(bare.profile(), profiled.profile());
  EXPECT_EQ(bare.profile().exchangeSupersteps, 1u);
  EXPECT_EQ(bare.profile().exchangedBytes, 0u);
  EXPECT_EQ(bare.profile().exchangeCycles, 0.0);
  EXPECT_EQ(tiles.traffic.totalBytes(), 0u);
  EXPECT_EQ(tiles.exchangeSupersteps, 1u);
}

// ---------------------------------------------------------------------------
// support::ThreadPool unit behaviour.
// ---------------------------------------------------------------------------

TEST(HostThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (int round = 0; round < 20; ++round) {
    for (auto& h : hits) h.store(0);
    pool.parallelFor(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " round " << round;
    }
  }
}

TEST(HostThreadPool, SingleThreadRunsInline) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1u);
  std::vector<std::size_t> order;
  pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(HostThreadPool, RethrowsFirstItemError) {
  support::ThreadPool pool(3);
  EXPECT_THROW(pool.parallelFor(64,
                                [&](std::size_t i) {
                                  if (i % 7 == 3) {
                                    throw std::runtime_error("item failed");
                                  }
                                }),
               std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int> count{0};
  pool.parallelFor(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}
