// Unit tests for the CodeDSL interpreter's scalar semantics, cycle
// accounting behaviour, and the compiled ParFor row kernels with control flow
// (checked against the generic statement walk).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "dsl/codedsl.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/tensor.hpp"
#include "graph/engine.hpp"
#include "graph/graph.hpp"

using namespace graphene;
using namespace graphene::dsl;
using graph::Scalar;
using twofloat::Float2;
using twofloat::SoftDouble;

// ---------------------------------------------------------------------------
// evalBinaryScalar / evalUnaryScalar
// ---------------------------------------------------------------------------

TEST(ScalarOps, IntegerArithmetic) {
  EXPECT_EQ(evalBinaryScalar(BinOp::Add, Scalar(7), Scalar(5)).asInt(), 12);
  EXPECT_EQ(evalBinaryScalar(BinOp::Sub, Scalar(7), Scalar(5)).asInt(), 2);
  EXPECT_EQ(evalBinaryScalar(BinOp::Mul, Scalar(7), Scalar(5)).asInt(), 35);
  EXPECT_EQ(evalBinaryScalar(BinOp::Div, Scalar(7), Scalar(5)).asInt(), 1);
  EXPECT_EQ(evalBinaryScalar(BinOp::Mod, Scalar(7), Scalar(5)).asInt(), 2);
  EXPECT_EQ(evalBinaryScalar(BinOp::Min, Scalar(7), Scalar(5)).asInt(), 5);
  EXPECT_EQ(evalBinaryScalar(BinOp::Max, Scalar(7), Scalar(5)).asInt(), 7);
}

TEST(ScalarOps, IntegerDivisionByZeroThrows) {
  EXPECT_THROW(evalBinaryScalar(BinOp::Div, Scalar(1), Scalar(0)), Error);
  EXPECT_THROW(evalBinaryScalar(BinOp::Mod, Scalar(1), Scalar(0)), Error);
}

TEST(ScalarOps, ModOnFloatsThrows) {
  EXPECT_THROW(evalBinaryScalar(BinOp::Mod, Scalar(1.0f), Scalar(2.0f)),
               Error);
}

TEST(ScalarOps, ComparisonsYieldBool) {
  auto r = evalBinaryScalar(BinOp::Lt, Scalar(1.0f), Scalar(2.0f));
  EXPECT_EQ(r.type(), DType::Bool);
  EXPECT_TRUE(r.asBool());
  EXPECT_FALSE(evalBinaryScalar(BinOp::Gt, Scalar(1.0f), Scalar(2.0f)).asBool());
  EXPECT_TRUE(evalBinaryScalar(BinOp::Ne, Scalar(1), Scalar(2)).asBool());
}

TEST(ScalarOps, MixedTypePromotion) {
  // int * float -> float
  auto r1 = evalBinaryScalar(BinOp::Mul, Scalar(3), Scalar(0.5f));
  EXPECT_EQ(r1.type(), DType::Float32);
  EXPECT_FLOAT_EQ(r1.asFloat(), 1.5f);
  // float + double-word -> double-word
  auto r2 = evalBinaryScalar(BinOp::Add, Scalar(1.0f),
                             Scalar(Float2::fromWide(1e-9)));
  EXPECT_EQ(r2.type(), DType::DoubleWord);
  EXPECT_NEAR(r2.toHostDouble(), 1.0 + 1e-9, 1e-15);
  // double-word + float64 -> float64 (widest wins)
  auto r3 = evalBinaryScalar(BinOp::Add, Scalar(Float2::fromWide(1.0)),
                             Scalar(SoftDouble::fromDouble(2.0)));
  EXPECT_EQ(r3.type(), DType::Float64);
  EXPECT_DOUBLE_EQ(r3.toHostDouble(), 3.0);
  // bool arithmetic promotes to int
  auto r4 = evalBinaryScalar(BinOp::Add, Scalar(true), Scalar(true));
  EXPECT_EQ(r4.type(), DType::Int32);
  EXPECT_EQ(r4.asInt(), 2);
}

TEST(ScalarOps, LogicOperatorsUseTruthiness) {
  EXPECT_TRUE(evalBinaryScalar(BinOp::And, Scalar(1.0f), Scalar(2)).asBool());
  EXPECT_FALSE(evalBinaryScalar(BinOp::And, Scalar(0.0f), Scalar(2)).asBool());
  EXPECT_TRUE(evalBinaryScalar(BinOp::Or, Scalar(0), Scalar(true)).asBool());
}

TEST(ScalarOps, UnaryOperations) {
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Neg, Scalar(2.5f)).asFloat(), -2.5f);
  EXPECT_EQ(evalUnaryScalar(UnOp::Neg, Scalar(-3)).asInt(), 3);
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Abs, Scalar(-2.5f)).asFloat(), 2.5f);
  EXPECT_FLOAT_EQ(evalUnaryScalar(UnOp::Sqrt, Scalar(9.0f)).asFloat(), 3.0f);
  EXPECT_TRUE(evalUnaryScalar(UnOp::Not, Scalar(false)).asBool());
  // Extended types route through their software implementations.
  auto dw = evalUnaryScalar(UnOp::Sqrt, Scalar(Float2::fromWide(2.0)));
  EXPECT_NEAR(dw.toHostDouble(), std::sqrt(2.0), 1e-13);
  auto sd = evalUnaryScalar(UnOp::Sqrt, Scalar(SoftDouble::fromDouble(2.0)));
  EXPECT_NEAR(sd.toHostDouble(), std::sqrt(2.0), 1e-15);
}

// ---------------------------------------------------------------------------
// Cycle accounting properties (via full DSL programs)
// ---------------------------------------------------------------------------

namespace {

double cyclesOf(DType type, std::size_t n, std::size_t tiles = 1) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  Tensor a(type, n, "a");
  Tensor b(type, n, "b");
  Tensor c(type, n, "c");
  c = Expression(a) * Expression(b) + Expression(a);
  graph::Engine e(ctx.graph());
  e.run(ctx.program());
  return e.profile().totalComputeCycles();
}

}  // namespace

TEST(CycleAccounting, ExtendedTypesCostMore) {
  double f32 = cyclesOf(DType::Float32, 300);
  double dw = cyclesOf(DType::DoubleWord, 300);
  double f64 = cyclesOf(DType::Float64, 300);
  EXPECT_GT(dw, 3 * f32);   // Table I: ~20x on pure flops, loads dilute
  EXPECT_GT(f64, 2.5 * dw); // f64 emulation ~8x DW on flops
}

TEST(CycleAccounting, CyclesScaleLinearlyWithElements) {
  double small = cyclesOf(DType::Float32, 600);
  double large = cyclesOf(DType::Float32, 2400);
  EXPECT_NEAR(large / small, 4.0, 0.4);
}

TEST(CycleAccounting, WorkSplitsAcrossTiles) {
  // Same total elements on 1 vs 4 tiles: the BSP superstep costs the
  // slowest tile, so 4 tiles ≈ 1/4 the cycles.
  double one = cyclesOf(DType::Float32, 2400, 1);
  double four = cyclesOf(DType::Float32, 2400, 4);
  EXPECT_NEAR(one / four, 4.0, 0.5);
}

TEST(CycleAccounting, SelectEvaluatesOnlyChosenSide) {
  // Guarded halo-style indexing must not read out of bounds AND must not
  // charge for the untaken (expensive) branch.
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor flags(DType::Int32, 64, "flags");
  Tensor cheap(DType::Float32, 64, "cheap");
  Tensor out(DType::Float32, 64, "out");
  Execute({flags, cheap, out}, [](Value f, Value c, Value o) {
    For(0, o.size(), 1, [&](Value i) {
      // Out-of-range index on the untaken side: must never be evaluated.
      o[i] = Select(f[i] == 0, c[i], c[i - 1000000]);
    });
  });
  graph::Engine e(ctx.graph());
  // flags all zero → always take the first branch.
  e.run(ctx.program());
  SUCCEED();
}

TEST(CycleAccounting, WhileConditionReevaluatedEachIteration) {
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor out(DType::Int32, 1, "out");
  Execute({out}, [](Value o) {
    Value i = 0;
    Value limit = 5;
    While([&] { return i < limit; }, [&] {
      i = i + 1;
      limit = limit - 1;  // moving target: must terminate at crossover
    });
    o[0] = i;
  });
  graph::Engine e(ctx.graph());
  e.run(ctx.program());
  EXPECT_EQ(e.readTensor<std::int32_t>(out.id())[0], 3);
}

TEST(CycleAccounting, NegativeIndexDetected) {
  Context ctx(ipu::IpuTarget::testTarget(1));
  Tensor v(DType::Float32, 8, "v");
  Execute({v}, [](Value t) {
    Value i = 0;
    t[i - 5] = 1.0f;
  });
  graph::Engine e(ctx.graph());
  EXPECT_THROW(e.run(ctx.program()), Error);
}

TEST(CycleAccounting, MixedDwFpOpsPricedBelowFullDw) {
  // float32 coefficient times double-word vector (the MPIR residual inner
  // product) must be cheaper than full DW×DW (§III-D: DWTimesFP vs
  // DWTimesDW).
  auto run = [](bool mixed) {
    Context ctx(ipu::IpuTarget::testTarget(1));
    Tensor a(mixed ? DType::Float32 : DType::DoubleWord, 512, "a");
    Tensor b(DType::DoubleWord, 512, "b");
    Tensor c(DType::DoubleWord, 512, "c");
    c = Expression(a) * Expression(b);
    graph::Engine e(ctx.graph());
    e.run(ctx.program());
    return e.profile().totalComputeCycles();
  };
  EXPECT_LT(run(true), run(false));
}

// ---------------------------------------------------------------------------
// ParFor row kernels with control flow: the compiled row VM must match the
// generic walk in every value bit and every charged cycle, raise the same
// errors, and actually compile.
// ---------------------------------------------------------------------------

namespace {

using Body = std::function<void(std::vector<Value>&)>;

/// One codelet argument: element type (Float32 or Int32) and contents.
struct Arg {
  DType type;
  std::vector<double> init;
};

struct Outcome {
  // Every argument after the run, as raw bits (floats) or values (ints).
  std::vector<std::vector<std::int64_t>> bits;
  double cycles = 0;
};

/// Runs `body` as a one-tile codelet over `args` with the compiled fast
/// paths switched on or off.
Outcome runCodelet(const std::vector<Arg>& args, const Body& body,
                   bool fastPaths) {
  Context ctx(ipu::IpuTarget::testTarget(1));
  std::vector<Tensor> tensors;
  tensors.reserve(args.size());
  for (std::size_t k = 0; k < args.size(); ++k) {
    tensors.emplace_back(args[k].type, args[k].init.size(),
                         "arg" + std::to_string(k));
  }
  Execute(std::vector<TensorRef>(tensors.begin(), tensors.end()), body);
  graph::Engine e(ctx.graph());
  for (std::size_t k = 0; k < args.size(); ++k) {
    const std::vector<double>& v = args[k].init;
    if (args[k].type == DType::Float32) {
      e.writeTensor<float>(tensors[k].id(),
                           std::vector<float>(v.begin(), v.end()));
    } else {
      e.writeTensor<std::int32_t>(tensors[k].id(),
                                  std::vector<std::int32_t>(v.begin(), v.end()));
    }
  }
  const bool saved = codeletFastPathsEnabled();
  setCodeletFastPaths(fastPaths);
  try {
    e.run(ctx.program());
  } catch (...) {
    setCodeletFastPaths(saved);
    throw;
  }
  setCodeletFastPaths(saved);

  Outcome out;
  for (std::size_t k = 0; k < args.size(); ++k) {
    std::vector<std::int64_t> bits;
    if (args[k].type == DType::Float32) {
      for (float f : e.readTensor<float>(tensors[k].id())) {
        std::uint32_t u = 0;
        std::memcpy(&u, &f, sizeof u);
        bits.push_back(u);
      }
    } else {
      for (std::int32_t i : e.readTensor<std::int32_t>(tensors[k].id())) {
        bits.push_back(i);
      }
    }
    out.bits.push_back(std::move(bits));
  }
  out.cycles = e.profile().totalComputeCycles();
  return out;
}

/// Traces `body` and compiles it the way every Execute does.
LoopCoverage coverageOf(const std::vector<Arg>& args, const Body& body) {
  CodeletBuilder builder;
  builder.setNumArgs(args.size());
  std::vector<Value> handles;
  for (std::size_t k = 0; k < args.size(); ++k) {
    handles.push_back(Value::argument(static_cast<int>(k), args[k].type));
  }
  body(handles);
  const CodeletIR ir = builder.finish();
  graph::Graph g(ipu::IpuTarget::testTarget(1));
  return loopCoverage(*compileCodelet(ir, g.costModel(), 6));
}

/// Runs both paths, expects identical bits and cycles, returns the outcome.
Outcome expectFastMatchesWalk(const std::vector<Arg>& args, const Body& body) {
  const Outcome fast = runCodelet(args, body, true);
  const Outcome walk = runCodelet(args, body, false);
  EXPECT_EQ(fast.bits, walk.bits);
  EXPECT_EQ(fast.cycles, walk.cycles);
  EXPECT_GT(fast.cycles, 0.0);
  return fast;
}

float asFloat(std::int64_t bits) {
  const auto u = static_cast<std::uint32_t>(bits);
  float f = 0;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// Both paths throw graphene::Error; returns the two messages.
std::pair<std::string, std::string> expectSameError(const std::vector<Arg>& args,
                                                    const Body& body) {
  std::string fast, walk;
  try {
    runCodelet(args, body, true);
    ADD_FAILURE() << "fast path did not throw";
  } catch (const Error& e) {
    fast = e.what();
  }
  try {
    runCodelet(args, body, false);
    ADD_FAILURE() << "generic walk did not throw";
  } catch (const Error& e) {
    walk = e.what();
  }
  return {fast, walk};
}

}  // namespace

TEST(RowKernels, IfElseInsideNestedFor) {
  // CSR-style rows (row 1 is empty: a zero-trip nested loop) whose
  // nonzeros take one of two float branches.
  const std::vector<Arg> args = {
      {DType::Float32, {1.5, -2, 3, -0.25, 4, 0, -1, 2}},  // x
      {DType::Int32, {0, 2, 2, 5, 8}},                     // row pointers
      {DType::Float32, {9, 9, 9, 9}},                      // out
  };
  const Body body = [](std::vector<Value>& a) {
    Value x = a[0], rp = a[1], out = a[2];
    ParallelFor(0, out.size(), [&](Value r) {
      Value acc = 0.0f;
      For(rp[r], rp[r + 1], 1, [&](Value k) {
        Value v = x[k];
        If(v > 0.0f, [&] { acc = acc + v; },
           [&] { acc = acc - v * 2.0f; });
      });
      out[r] = acc;
    });
  };
  const Outcome got = expectFastMatchesWalk(args, body);
  const std::vector<float> want = {1.5f + 4.0f, 0.0f, 3.0f + 0.5f + 4.0f,
                                   0.0f + 2.0f + 2.0f};
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(asFloat(got.bits[2][r]), want[r]) << "row " << r;
  }
  const LoopCoverage cov = coverageOf(args, body);
  EXPECT_EQ(cov.loops, 2u);
  EXPECT_EQ(cov.fast, 2u);
}

TEST(RowKernels, NestedIfInsideWhileWithAndCondition) {
  // The ILU(0) merge shape: walk two sorted column lists per row with a
  // `&&` loop condition and nested If/else to find matching columns.
  const std::vector<Arg> args = {
      {DType::Int32, {0, 2, 5, 1, 3, 0, 4}},            // columns of A
      {DType::Int32, {0, 3, 5, 7}},                     // row pointers of A
      {DType::Int32, {0, 1, 2, 5, 3, 4}},               // columns of B
      {DType::Int32, {0, 4, 4, 6}},                     // row pointers of B
      {DType::Float32, {1, 2, 3, 4, 5, 6, 7}},          // values of A
      {DType::Float32, {0.5, 0.25, 2, 8, 1, 3}},        // values of B
      {DType::Float32, {0, 0, 0}},                      // out
  };
  const Body body = [](std::vector<Value>& a) {
    Value ca = a[0], pa = a[1], cb = a[2], pb = a[3], va = a[4], vb = a[5],
          out = a[6];
    ParallelFor(0, out.size(), [&](Value r) {
      Value i = pa[r];
      Value iEnd = pa[r + 1];
      Value j = pb[r];
      Value jEnd = pb[r + 1];
      Value dot = 0.0f;
      While([&] { return i < iEnd && j < jEnd; }, [&] {
        Value ci = ca[i];
        Value cj = cb[j];
        If(ci == cj,
           [&] {
             dot = dot + Value(va[i]) * Value(vb[j]);
             i = i + 1;
             j = j + 1;
           },
           [&] { If(ci < cj, [&] { i = i + 1; }, [&] { j = j + 1; }); });
      });
      out[r] = dot;
    });
  };
  const Outcome got = expectFastMatchesWalk(args, body);
  // Row 0: A {0,2,5} · B {0,1,2,5} → 1·0.5 + 2·2 + 3·8; row 1: B empty;
  // row 2: A {0,4} · B {3,4} → 7·3.
  EXPECT_EQ(asFloat(got.bits[6][0]), 0.5f + 4.0f + 24.0f);
  EXPECT_EQ(asFloat(got.bits[6][1]), 0.0f);
  EXPECT_EQ(asFloat(got.bits[6][2]), 21.0f);
  const LoopCoverage cov = coverageOf(args, body);
  EXPECT_EQ(cov.loops, 1u);
  EXPECT_EQ(cov.fast, 1u);
}

TEST(RowKernels, VarFirstAssignedInsideIfBody) {
  const std::vector<Arg> args = {
      {DType::Float32, {0.5, 3, 1, -4, 8}},  // x
      {DType::Float32, {7, 7, 7, 7, 7}},     // out
  };
  // Defined and read inside the branch: compiles.
  const Body inside = [](std::vector<Value>& a) {
    Value x = a[0], out = a[1];
    ParallelFor(0, out.size(), [&](Value r) {
      Value v = x[r];
      If(v >= 1.0f, [&] {
        Value scaled = v * 0.5f;
        out[r] = scaled + scaled;
      });
    });
  };
  const Outcome got = expectFastMatchesWalk(args, inside);
  EXPECT_EQ(asFloat(got.bits[1][0]), 7.0f);
  EXPECT_EQ(asFloat(got.bits[1][1]), 3.0f);
  EXPECT_EQ(asFloat(got.bits[1][3]), 7.0f);
  EXPECT_EQ(coverageOf(args, inside).fast, 1u);

  // Read after the branch that first defines it: the row sees whatever an
  // earlier row left behind, which only the walk reproduces, so the kernel
  // must not compile — and the two paths still agree.
  const Body outside = [](std::vector<Value>& a) {
    Value x = a[0], out = a[1];
    Value seed = 1.0f;
    ParallelFor(0, out.size(), [&](Value r) {
      Value v = x[r];
      std::optional<Value> t;
      If(v >= 1.0f, [&] { t.emplace(v + seed); });
      out[r] = *t;
    });
  };
  expectFastMatchesWalk(args, outside);
  const LoopCoverage cov = coverageOf(args, outside);
  EXPECT_EQ(cov.loops, 1u);
  EXPECT_EQ(cov.fast, 0u);
}

TEST(RowKernels, ZeroTripRowsAndLevels) {
  // Level-set shape: a serial loop over levels (levels 0 and 2 are empty),
  // a ParFor over each level's rows, and a nested loop per row (row 1 has
  // no entries).
  const std::vector<Arg> args = {
      {DType::Int32, {0, 0, 2, 2, 4}},         // level pointers
      {DType::Int32, {0, 2, 2, 3, 5}},         // row pointers
      {DType::Int32, {1, 0, 1, 0, 2}},         // columns
      {DType::Float32, {2, 4, 8, 16, 32}},     // values
      {DType::Float32, {0, 0, 0, 0}},          // out
  };
  const Body body = [](std::vector<Value>& a) {
    Value lvl = a[0], rp = a[1], col = a[2], val = a[3], out = a[4];
    For(0, lvl.size() - 1, 1, [&](Value l) {
      ParallelFor(lvl[l], lvl[l + 1], [&](Value row) {
        Value acc = 1.0f;
        For(rp[row], rp[row + 1], 1, [&](Value k) {
          Value c = col[k];
          If(c < row, [&] { acc = acc + val[k]; });
        });
        out[row] = acc;
      });
    });
    // A ParFor with an empty range at the codelet root.
    ParallelFor(3, 3, [&](Value row) { out[row] = 99.0f; });
  };
  const Outcome got = expectFastMatchesWalk(args, body);
  EXPECT_EQ(asFloat(got.bits[4][0]), 1.0f);  // no column below row 0
  EXPECT_EQ(asFloat(got.bits[4][1]), 1.0f);  // no entries
  EXPECT_EQ(asFloat(got.bits[4][2]), 1.0f + 8.0f);
  EXPECT_EQ(asFloat(got.bits[4][3]), 1.0f + 16.0f + 32.0f);
  // The level loop itself stays on the walk; everything inside compiles.
  const LoopCoverage cov = coverageOf(args, body);
  EXPECT_EQ(cov.loops, 4u);
  EXPECT_EQ(cov.fast, 3u);
}

TEST(RowKernels, FloatAndIntComparisons) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<Arg> args = {
      {DType::Float32, {1, 2, -0.0, nan, 5}},  // a
      {DType::Float32, {2, 2, 0, 1, -5}},      // b
      {DType::Int32, {3, -1, 0, 7, 0}},        // p
      {DType::Int32, {3, 4, 0, -7, 2}},        // q
      {DType::Float32, {0, 0, 0, 0, 0}},       // out
  };
  const Body body = [](std::vector<Value>& a) {
    Value x = a[0], y = a[1], p = a[2], q = a[3], out = a[4];
    ParallelFor(0, out.size(), [&](Value r) {
      Value fa = x[r], fb = y[r], ia = p[r], ib = q[r];
      Value code = 0.0f;
      float bit = 1.0f;
      auto flag = [&](const Value& cond) {
        const float b = bit;
        If(cond, [&] { code = code + b; });
        bit *= 2.0f;
      };
      flag(fa < fb);
      flag(fa <= fb);
      flag(fa > fb);
      flag(fa >= fb);
      flag(fa == fb);
      flag(fa != fb);
      flag(ia < ib);
      flag(ia <= ib);
      flag(ia > ib);
      flag(ia >= ib);
      flag(ia == ib);
      flag(ia != ib);
      flag(ia < fb);              // mixed: promoted to float
      flag(fa && ib);             // truthiness of float and int
      flag(!(fa < fb) || ia == ib);
      flag(!fa);
      flag(ia);                   // an int as a condition
      out[r] = code;
    });
  };
  const Outcome got = expectFastMatchesWalk(args, body);
  // Row 3 compares against NaN: every float relation but != is false.
  const float row3 = asFloat(got.bits[4][3]);
  EXPECT_EQ(static_cast<int>(row3) & 63, 32);
  EXPECT_EQ(coverageOf(args, body).fast, 1u);
}

TEST(RowKernels, OutOfRangeIndexRaisesOnBothPaths) {
  const std::vector<Arg> args = {
      {DType::Float32, {1, 2, 3, 4}},
      {DType::Float32, {0, 0, 0, 0}},
  };
  for (int offset : {4, -9}) {
    SCOPED_TRACE(offset);
    const Body body = [offset](std::vector<Value>& a) {
      Value x = a[0], out = a[1];
      ParallelFor(0, out.size(), [&](Value r) {
        Value v = 0.0f;
        If(r == 2, [&] { v = x[r + offset]; });
        out[r] = v;
      });
    };
    EXPECT_EQ(coverageOf(args, body).fast, 1u);
    expectSameError(args, body);
  }
}

TEST(RowKernels, RunawayWhileRaisesOnBothPaths) {
  const std::vector<Arg> args = {{DType::Float32, {0, 0}}};
  const Body body = [](std::vector<Value>& a) {
    Value out = a[0];
    Value forever = 1;
    ParallelFor(0, out.size(), [&](Value r) {
      While([&] { return forever; }, [] {});
      out[r] = 1.0f;
    });
  };
  EXPECT_EQ(coverageOf(args, body).fast, 1u);
  const auto [fast, walk] = expectSameError(args, body);
  EXPECT_NE(fast.find("runaway While loop in codelet"), std::string::npos)
      << fast;
  EXPECT_NE(walk.find("runaway While loop in codelet"), std::string::npos)
      << walk;
}
