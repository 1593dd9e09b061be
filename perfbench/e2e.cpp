// End-to-end benchmark program for graphene-ipu.
//
// Runs one seeded workload through the entry points users call —
// solver::SolveSession or solver::SolverService — and prints one JSON
// document of raw samples on stdout. run.py turns the samples into the
// metrics named in BENCHMARK.json; NOTES.md says why each workload exists.
//
//   --mode run    Untraced. Sets the entry point up several times (the
//                 setup_s samples), then solves in a timed window. Every
//                 solution is checked against a host double-precision
//                 residual bound, and the first solve of each structure
//                 against the src/baseline double-precision solver.
//   --mode trace  For half of --seconds, a mirror of the same solves, made
//                 from the public calls a SolveSession makes on a fault-free
//                 solve (Partitioner, DistMatrix, makeSolver, Solver::apply,
//                 Engine), each call wrapped in a span; the spans go to
//                 --spans. The same solves then run untraced through the
//                 entry point, and every simulated count must match the
//                 mirror's exactly.
//
// Usage: perfbench_e2e --workload W --seed N --seconds S --mode run|trace
//                      [--spans FILE]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cpu_solver.hpp"
#include "dsl/context.hpp"
#include "graph/engine.hpp"
#include "partition/partitioner.hpp"
#include "solver/plan_cache.hpp"
#include "solver/service.hpp"
#include "solver/session.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace graphene;
using Clock = std::chrono::steady_clock;

// Set-ups per run: setup_s is their median.
constexpr std::size_t kSessionSetups = 7;
constexpr std::size_t kServiceSetups = 1001;
// The service-mix window runs until at least this many jobs completed, so
// p95 has at least ten samples beyond it.
constexpr std::size_t kMinServiceJobs = 200;
// Service-mix jobs the trace mode mirrors outside the service.
constexpr std::size_t kMirroredJobs = 40;
// Host threads of the traced run's thread-count determinism check.
constexpr std::size_t kParallelThreads = 2;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double secondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// One independent random stream per (seed, purpose, index).
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t purpose,
                         std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (purpose << 40) + index;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum Purpose : std::uint64_t { kRhs = 1, kJobs, kHotStructure, kNewStructure };

std::vector<double> seededRhs(std::uint64_t seed, std::size_t index,
                              std::size_t n) {
  Rng rng(streamSeed(seed, kRhs, index));
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hashVector(const std::vector<double>& x) {
  return solver::fnv1aBytes(x.data(), x.size() * sizeof(double));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Correctness oracle -----------------------------------------------------

/// How a solve is judged: its solver tolerance, the unit roundoff of the
/// precision it iterates in and of the precision its solution is stored in,
/// and the src/baseline method that solves the same system in double as a
/// reference.
struct Method {
  json::Value config;
  double tolerance = 0;
  double workRoundoff = 0;
  double storeRoundoff = 0;
  bool baselineBiCgStab = false;
  bool baselineIlu = false;
  /// The baseline runs the same Krylov method with the same preconditioner,
  /// so iteration counts are comparable.
  bool sameMethod = false;
};

constexpr double kFloat32Roundoff = 0x1.0p-24;
// A double-word value carries two float32 significands.
constexpr double kDoubleWordRoundoff = 0x1.0p-48;

struct ResidualCheck {
  double rel = 0;
  double bound = 0;
};

/// ‖b − A·x‖/‖b‖ in double, and the bound it must meet. Rounding x to its
/// storage precision u_s moves each entry by at most u_s·|x_i|, which moves
/// the residual by at most u_s·|A||x|. Each iteration's updates of x and r in
/// the working precision u_w add rounding of the same order to the gap
/// between the recursive residual the solver stops on and the true one
/// (Greenbaum, attainable accuracy of recursively computed residual
/// methods), as does each row's dot product. So the bound is
///   tol + (u_s + u_w·(iterations + max row nnz))·‖|A||x|‖/‖b‖.
ResidualCheck checkResidual(const matrix::CsrMatrix& a,
                            const std::vector<double>& b,
                            const std::vector<double>& x,
                            const Method& method, std::size_t iterations) {
  const auto rowPtr = a.rowPtr();
  const auto col = a.colIdx();
  const auto val = a.values();
  double r2 = 0, b2 = 0, ax2 = 0;
  std::size_t maxRowNnz = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double ax = 0, absAx = 0;
    for (std::size_t k = rowPtr[i]; k < rowPtr[i + 1]; ++k) {
      ax += val[k] * x[col[k]];
      absAx += std::abs(val[k] * x[col[k]]);
    }
    maxRowNnz = std::max(maxRowNnz, rowPtr[i + 1] - rowPtr[i]);
    r2 += (b[i] - ax) * (b[i] - ax);
    b2 += b[i] * b[i];
    ax2 += absAx * absAx;
  }
  const double bNorm = std::sqrt(std::max(b2, 1e-300));
  ResidualCheck c;
  c.rel = std::sqrt(r2) / bNorm;
  c.bound = method.tolerance +
            (method.storeRoundoff +
             method.workRoundoff *
                 static_cast<double>(iterations + maxRowNnz)) *
                std::sqrt(ax2) / bNorm;
  return c;
}

/// The double-precision src/baseline solve of the same system. It must
/// converge to the same tolerance; when it runs the same method, the
/// simulated solve may take at most twice its iterations plus ten (float32
/// recurrences lose orthogonality and converge later, never an order of
/// magnitude later on these well-conditioned systems). Returns "" or the
/// reason the check failed.
std::string checkBaseline(const matrix::CsrMatrix& a,
                          const std::vector<double>& b, const Method& method,
                          std::size_t simIterations) {
  const std::size_t maxIterations = 5000;
  const baseline::HostSolveResult r =
      method.baselineBiCgStab
          ? baseline::hostBiCgStab(a, b, method.tolerance, maxIterations,
                                   method.baselineIlu)
          : baseline::hostCg(a, b, method.tolerance, maxIterations,
                             method.baselineIlu);
  if (!r.converged) {
    return "baseline double-precision solve did not converge to " +
           std::to_string(method.tolerance);
  }
  if (method.sameMethod && simIterations > 2 * r.iterations + 10) {
    return "took " + std::to_string(simIterations) +
           " iterations against the baseline's " +
           std::to_string(r.iterations);
  }
  return "";
}

// ---- Per-solve records ------------------------------------------------------

struct SolveRecord {
  std::size_t index = 0;
  double wallMs = 0;
  double simCycles = 0;
  std::size_t supersteps = 0;  // compute + exchange
  std::size_t exchangedBytes = 0;
  std::size_t iterations = 0;
  double reportedResidual = 0;  // the solver's own final residual
  std::string status;
  std::uint64_t xHash = 0;
  double relResidual = 0;
  double bound = 0;
  bool ok = false;
  bool cacheHit = false;
  std::size_t attempts = 1;
  std::string error;
};

json::Value toJson(const SolveRecord& r) {
  json::Object o;
  o["index"] = r.index;
  o["wall_ms"] = r.wallMs;
  o["sim_cycles"] = r.simCycles;
  o["supersteps"] = r.supersteps;
  o["exchanged_bytes"] = r.exchangedBytes;
  o["iterations"] = r.iterations;
  o["status"] = r.status;
  o["x_hash"] = hex(r.xHash);
  o["rel_residual"] = r.relResidual;
  o["reported_residual"] = r.reportedResidual;
  o["bound"] = r.bound;
  o["ok"] = r.ok;
  o["cache_hit"] = r.cacheHit;
  o["attempts"] = r.attempts;
  if (!r.error.empty()) o["error"] = r.error;
  return json::Value(o);
}

/// Judges a finished solve and records the verdict in `r`.
void judge(SolveRecord& r, const matrix::CsrMatrix& a,
           const std::vector<double>& b, const std::vector<double>& x,
           const Method& method) {
  if (r.status != "converged" || x.size() != a.rows()) {
    r.error = "status " + r.status;
    r.ok = false;
    return;
  }
  r.xHash = hashVector(x);
  const ResidualCheck c = checkResidual(a, b, x, method, r.iterations);
  r.relResidual = c.rel;
  r.bound = c.bound;
  if (!(c.rel <= c.bound)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "true residual %.3g above bound %.3g (solver reported "
                  "%.3g)",
                  c.rel, c.bound, r.reportedResidual);
    r.error = buf;
  }
  r.ok = r.error.empty();
}

/// The counters that must repeat exactly when the same solve runs twice:
/// traced mirror vs untraced entry point, or 1 vs 2 host threads.
std::string mismatch(const SolveRecord& a, const SolveRecord& b) {
  auto diff = [&](const char* what, double x, double y) {
    return "solve " + std::to_string(a.index) + ": " + what + " " +
           std::to_string(x) + " vs " + std::to_string(y);
  };
  if (a.simCycles != b.simCycles)
    return diff("sim cycles", a.simCycles, b.simCycles);
  if (a.iterations != b.iterations)
    return diff("iterations", static_cast<double>(a.iterations),
                static_cast<double>(b.iterations));
  // Supersteps and exchanged bytes are 0 where not visible (service jobs).
  if (a.supersteps && b.supersteps && a.supersteps != b.supersteps)
    return diff("supersteps", static_cast<double>(a.supersteps),
                static_cast<double>(b.supersteps));
  if (a.exchangedBytes && b.exchangedBytes &&
      a.exchangedBytes != b.exchangedBytes)
    return diff("exchanged bytes", static_cast<double>(a.exchangedBytes),
                static_cast<double>(b.exchangedBytes));
  if (a.xHash != b.xHash)
    return "solve " + std::to_string(a.index) + ": solution differs bitwise";
  return "";
}

// ---- Spans ------------------------------------------------------------------

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written out when the run ends.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int begin(const std::string& name, int parent, long solve) {
    spans_.push_back({name, parent, solve, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].endUs = now(); }

  json::Value toJson() const {
    json::Array out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Object o;
      o["id"] = i;
      o["name"] = s.name;
      o["parent"] = static_cast<double>(s.parent);
      o["solve"] = static_cast<double>(s.solve);
      o["start_us"] = s.startUs;
      o["end_us"] = s.endUs;
      out.push_back(json::Value(o));
    }
    return json::Value(out);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long solve;
    double startUs, endUs;
  };
  double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent, long solve)
      : log_(log), id_(log.begin(name, parent, solve)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- Traced mirror of SolveSession ------------------------------------------

/// Per-solve layer counters read off the mirror's engine and trace sink.
json::Value layerCounters(const graph::Engine& e,
                          const support::TraceSink& trace) {
  const ipu::Profile& p = e.profile();
  json::Object o;
  json::Object compute;
  for (const auto& [category, cycles] : p.computeCycles) {
    compute[category] = cycles;
  }
  o["compute_cycles"] = json::Value(compute);
  o["exchange_cycles"] = p.exchangeCycles;
  o["sync_cycles"] = p.syncCycles;
  o["exchanged_bytes"] = p.exchangedBytes;
  o["exchange_instructions"] = p.exchangeInstructions;
  o["compute_supersteps"] = p.computeSupersteps;
  o["exchange_supersteps"] = p.exchangeSupersteps;
  o["vertices_executed"] = p.verticesExecuted;
  o["restarts"] = p.metrics.counter("cg.restarts") +
                  p.metrics.counter("bicgstab.restarts") +
                  p.metrics.counter("mpir.rollbacks");
  o["trace_events"] = trace.recorded();
  o["trace_dropped"] = trace.dropped();
  return json::Value(o);
}

/// The pipeline a SolveSession builds in load() + configure() + its first
/// solve(), built from the same public calls, each in a span.
class Mirror {
 public:
  Mirror(const matrix::GeneratedMatrix& m, const solver::SessionOptions& opts,
         const json::Value& config, SpanLog& spans, long solveId)
      : hostThreads_(opts.hostThreads),
        trace_(std::max<std::size_t>(opts.traceCapacity, 1)) {
    const ipu::Topology topo = solver::resolveSessionTopology(opts);
    ScopedSpan root(spans, "build", -1, solveId);
    {
      ScopedSpan s(spans, "build.context", root.id(), solveId);
      ctx_ = std::make_unique<dsl::Context>(topo.target());
      ctx_->graph().setControlTile(0);
      ctx_->graph().setExcludedTiles({});
    }
    partition::DistributedLayout layout;
    {
      ScopedSpan s(spans, "build.partition", root.id(), solveId);
      layout = partition::Partitioner(topo).layout(m);
    }
    {
      ScopedSpan s(spans, "build.distmatrix", root.id(), solveId);
      A_ = std::make_unique<solver::DistMatrix>(m.matrix, std::move(layout));
    }
    {
      ScopedSpan s(spans, "build.make_solver", root.id(), solveId);
      solver_ = solver::makeSolver(config);
    }
    {
      ScopedSpan s(spans, "build.emit", root.id(), solveId);
      x_.emplace(A_->makeVector(dsl::DType::Float32, "session_x"));
      b_.emplace(A_->makeVector(dsl::DType::Float32, "session_b"));
      solver_->apply(*A_, *x_, *b_);
    }
  }

  ~Mirror() {
    // Dependency order, as SolveSession tears down: the engine and the
    // tensors and solver hold handles into the context's graph.
    engine_.reset();
    x_.reset();
    b_.reset();
    solver_.reset();
    A_.reset();
    ctx_.reset();
  }
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  std::size_t blockwiseTransfers() const { return A_->numBlockwiseTransfers(); }
  std::size_t sramPeakBytes() const {
    return ctx_->graph().ledger().peakUsed();
  }

  /// One fault-free SolveSession::solve(), call for call. Like the session,
  /// the mirror keeps the last engine until the next solve replaces it.
  SolveRecord solve(const std::vector<double>& rhs, SpanLog& spans,
                    long solveId, int parent, std::vector<double>& x,
                    json::Value& counters) {
    SolveRecord r;
    {
      ScopedSpan root(spans, "solve", parent, solveId);
      trace_.clear();
      solver_->clearHistory();
      {
        ScopedSpan s(spans, "engine.construct", root.id(), solveId);
        engine_ = std::make_unique<graph::Engine>(ctx_->graph(), hostThreads_);
        engine_->setExcludedTiles({});
        engine_->setTraceSink(&trace_);
      }
      {
        ScopedSpan s(spans, "engine.upload", root.id(), solveId);
        A_->upload(*engine_);
        A_->writeVector(*engine_, *b_, rhs);
      }
      {
        ScopedSpan s(spans, "engine.run", root.id(), solveId);
        engine_->run(ctx_->program());
      }
      {
        ScopedSpan s(spans, "engine.readback", root.id(), solveId);
        r.status = solver::toString(solver_->result().status);
        r.iterations = solver_->result().iterations;
        r.reportedResidual = solver_->result().finalResidual;
        x = A_->readVector(*engine_, *x_);
      }
    }
    const ipu::Profile& p = engine_->profile();
    r.simCycles = engine_->simCycles();
    r.supersteps = p.computeSupersteps + p.exchangeSupersteps;
    r.exchangedBytes = p.exchangedBytes;
    counters = layerCounters(*engine_, trace_);
    return r;
  }

 private:
  std::size_t hostThreads_;
  support::TraceSink trace_;
  std::unique_ptr<dsl::Context> ctx_;
  std::unique_ptr<solver::DistMatrix> A_;
  std::unique_ptr<solver::Solver> solver_;
  std::optional<dsl::Tensor> x_, b_;
  std::unique_ptr<graph::Engine> engine_;
};

// ---- Workloads --------------------------------------------------------------

struct Output {
  json::Object doc;
  json::Array failures;
  void fail(const std::string& what) { failures.push_back(json::Value(what)); }
};

struct SessionWorkload {
  matrix::GeneratedMatrix matrix;
  solver::SessionOptions options;
  Method method;
};

std::optional<SessionWorkload> sessionWorkload(const std::string& name) {
  SessionWorkload w;
  if (name == "fem-ilu") {
    w.matrix = matrix::makeBenchmarkMatrix("hook_1498", 2000, 50);
    w.options.tiles = 16;
    w.options.hostThreads = 1;
    w.method.config = json::parse(
        R"({"type": "bicgstab", "tolerance": 1e-5,
            "preconditioner": {"type": "ilu"}})");
    w.method.tolerance = 1e-5;
    w.method.workRoundoff = w.method.storeRoundoff = kFloat32Roundoff;
    w.method.baselineBiCgStab = true;
    w.method.baselineIlu = true;
    w.method.sameMethod = true;
  } else if (name == "fem-ilu-mpir") {
    // The same system and inner method, refined in double-word: the outer
    // loop stops on the true residual it measures in extended precision.
    w.matrix = matrix::makeBenchmarkMatrix("hook_1498", 2000, 50);
    w.options.tiles = 16;
    w.options.hostThreads = 1;
    w.method.config = json::parse(
        R"({"type": "mpir", "extendedType": "doubleword", "tolerance": 1e-5,
            "inner": {"type": "bicgstab", "tolerance": 1e-3,
                      "maxIterations": 200,
                      "preconditioner": {"type": "ilu"}}})");
    w.method.tolerance = 1e-5;
    w.method.workRoundoff = kDoubleWordRoundoff;
    // The session hands back its float32 solution tensor.
    w.method.storeRoundoff = kFloat32Roundoff;
    w.method.baselineBiCgStab = true;
    w.method.baselineIlu = true;
  } else {
    return std::nullopt;
  }
  return w;
}

SolveRecord sessionSolve(solver::SolveSession& s,
                         const std::vector<double>& rhs, std::size_t index,
                         std::vector<double>& x) {
  const auto t0 = Clock::now();
  solver::SolveSession::Result res = s.solve(rhs);
  const auto t1 = Clock::now();
  SolveRecord r;
  r.index = index;
  r.wallMs = msBetween(t0, t1);
  r.simCycles = res.simCycles;
  const ipu::Profile& p = s.profile();
  r.supersteps = p.computeSupersteps + p.exchangeSupersteps;
  r.exchangedBytes = p.exchangedBytes;
  r.iterations = res.solve.iterations;
  r.reportedResidual = res.solve.finalResidual;
  r.status = solver::toString(res.solve.status);
  x = std::move(res.x);
  return r;
}

/// ctor + load + configure + one warm-up solve, which emits the program.
std::unique_ptr<solver::SolveSession> setUpSession(const SessionWorkload& w,
                                                   std::uint64_t seed,
                                                   double& seconds) {
  const std::vector<double> warm =
      seededRhs(seed, SIZE_MAX, w.matrix.matrix.rows());
  const auto t0 = Clock::now();
  auto s = std::make_unique<solver::SolveSession>(w.options);
  s->load(w.matrix).configure(w.method.config);
  s->solve(warm);
  seconds = secondsSince(t0);
  return s;
}

/// Solves `count` seeded right-hand sides (or, with count 0, as many as fit
/// in `seconds`) on a set-up session and judges each.
std::vector<SolveRecord> sessionWindow(solver::SolveSession& s,
                                       const SessionWorkload& w,
                                       std::uint64_t seed, double seconds,
                                       std::size_t count, double& windowS) {
  std::vector<SolveRecord> out;
  const std::size_t n = w.matrix.matrix.rows();
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (count ? i >= count : (i > 0 && secondsSince(start) >= seconds)) break;
    const std::vector<double> rhs = seededRhs(seed, i, n);
    std::vector<double> x;
    SolveRecord r = sessionSolve(s, rhs, i, x);
    judge(r, w.matrix.matrix, rhs, x, w.method);
    out.push_back(std::move(r));
  }
  windowS = secondsSince(start);
  return out;
}

void baselineCheck(Output& out, const matrix::CsrMatrix& a,
                   const std::vector<double>& rhs, const Method& method,
                   SolveRecord& r, const std::string& what) {
  const std::string why = checkBaseline(a, rhs, method, r.iterations);
  if (!why.empty()) {
    r.ok = false;
    r.error = "baseline: " + why;
    out.fail(what + ": " + r.error);
  }
}

json::Value records(const std::vector<SolveRecord>& rs) {
  json::Array a;
  for (const SolveRecord& r : rs) a.push_back(toJson(r));
  return json::Value(a);
}

void runSession(const SessionWorkload& w, std::uint64_t seed, double seconds,
                Output& out) {
  json::Array setups;
  std::unique_ptr<solver::SolveSession> session;
  for (std::size_t k = 0; k < kSessionSetups; ++k) {
    session.reset();  // one dsl::Context per thread at a time
    double s = 0;
    session = setUpSession(w, seed, s);
    setups.push_back(json::Value(s));
  }
  double windowS = 0;
  std::vector<SolveRecord> solves =
      sessionWindow(*session, w, seed, seconds, 0, windowS);
  session.reset();
  for (const SolveRecord& r : solves) {
    if (!r.ok) out.fail("solve " + std::to_string(r.index) + ": " + r.error);
  }
  // The first solve against the double-precision baseline, after the
  // window so its host work does not land in the timings.
  baselineCheck(out, w.matrix.matrix,
                seededRhs(seed, 0, w.matrix.matrix.rows()), w.method,
                solves.front(), "solve 0");
  out.doc["setup_s"] = json::Value(setups);
  out.doc["window_s"] = windowS;
  out.doc["solves"] = records(solves);
}

void traceSession(const SessionWorkload& w, std::uint64_t seed,
                  double seconds, const std::string& spansPath, Output& out) {
  SpanLog spans;
  std::vector<SolveRecord> mirrored;
  json::Array counters;
  json::Object build;
  {
    Mirror mirror(w.matrix, w.options, w.method.config, spans, -1);
    build["blockwise_transfers"] = mirror.blockwiseTransfers();
    build["sram_peak_bytes"] = mirror.sramPeakBytes();
    // The session's warm-up solve, so both sides run the same sequence.
    {
      std::vector<double> x;
      json::Value c;
      mirror.solve(seededRhs(seed, SIZE_MAX, w.matrix.matrix.rows()), spans,
                   -1, -1, x, c);
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i == 0 || secondsSince(start) < seconds / 2;
         ++i) {
      const std::vector<double> rhs =
          seededRhs(seed, i, w.matrix.matrix.rows());
      std::vector<double> x;
      json::Value c;
      SolveRecord r = mirror.solve(rhs, spans, static_cast<long>(i), -1, x, c);
      r.index = i;
      judge(r, w.matrix.matrix, rhs, x, w.method);
      if (!r.ok) out.fail("traced solve " + std::to_string(i) + ": " + r.error);
      counters.push_back(c);
      mirrored.push_back(std::move(r));
    }
  }

  // The same solves, untraced, through SolveSession.
  double setupS = 0, windowS = 0;
  std::unique_ptr<solver::SolveSession> session =
      setUpSession(w, seed, setupS);
  std::vector<SolveRecord> untraced =
      sessionWindow(*session, w, seed, 0, mirrored.size(), windowS);
  session.reset();
  for (std::size_t i = 0; i < mirrored.size(); ++i) {
    const std::string why = mismatch(mirrored[i], untraced[i]);
    if (!why.empty()) out.fail("determinism (traced vs untraced): " + why);
  }

  // Bit-identical at any host thread count: solve 0 again on two host
  // threads, which runs the ThreadPool executor.
  {
    SessionWorkload parallel = w;
    parallel.options.hostThreads = kParallelThreads;
    double s = 0, ws = 0;
    auto two = setUpSession(parallel, seed, s);
    std::vector<SolveRecord> r2 =
        sessionWindow(*two, parallel, seed, 0, 1, ws);
    const std::string threads =
        std::to_string(w.options.hostThreads) + " vs " +
        std::to_string(kParallelThreads) + " host threads";
    const std::string why = mismatch(untraced.front(), r2.front());
    if (why.empty()) {
      out.doc["thread_check"] = threads + ": solve 0 identical";
    } else {
      out.fail("determinism (" + threads + "): " + why);
    }
  }

  out.doc["build"] = json::Value(build);
  out.doc["solves"] = records(mirrored);
  out.doc["untraced"] = records(untraced);
  out.doc["counters"] = json::Value(counters);
  std::ofstream(spansPath) << spans.toJson().dump() << "\n";
}

// ---- service-mix ------------------------------------------------------------

// 8 hot structures x 2 configs = 16 plan keys against the cache's 8 slots.
constexpr std::size_t kHotStructures = 8;
constexpr std::size_t kServiceRows = 2000;
// Jobs are dealt in blocks with exact shares, shuffled within the block:
// 75% hot structures (half of them with perturbed values), 25% never-seen
// structures; 70% Jacobi-CG float32, 30% MPIR double-word over CG.
constexpr std::size_t kBlock = 40;
constexpr std::size_t kBlockHot = 30, kBlockPerturbed = 15, kBlockMpir = 12;

struct Job {
  bool hot = false;
  std::size_t structure = 0;  // hot index, or the job index for a new one
  bool perturbed = false;
  double diagScale = 1.0;
  bool mpir = false;
};

Job makeJob(std::uint64_t seed, std::size_t index) {
  const std::size_t block = index / kBlock;
  const std::size_t slot = index % kBlock;
  // A seeded permutation of the block's slots, one per attribute.
  auto permuted = [&](std::uint64_t attr) {
    std::vector<std::size_t> p(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) p[i] = i;
    Rng rng(streamSeed(seed, kJobs, block * 4 + attr));
    for (std::size_t i = kBlock - 1; i > 0; --i) {
      std::swap(p[i], p[rng.nextBelow(i + 1)]);
    }
    return p[slot];
  };
  Job j;
  const std::size_t kind = permuted(0);
  j.hot = kind < kBlockHot;
  j.perturbed = kind < kBlockPerturbed;
  j.mpir = permuted(1) < kBlockMpir;
  Rng rng(streamSeed(seed, kJobs, 1000000 + index));
  j.structure = j.hot ? rng.nextBelow(kHotStructures) : index;
  j.diagScale = j.perturbed ? 1.0 + rng.uniform(0.01, 0.05) : 1.0;
  return j;
}

matrix::GeneratedMatrix jobMatrix(std::uint64_t seed, const Job& j) {
  matrix::GeneratedMatrix g = matrix::g3CircuitLike(
      kServiceRows,
      streamSeed(seed, j.hot ? kHotStructure : kNewStructure, j.structure));
  if (j.perturbed) {
    // Scaling the diagonal up keeps the system symmetric positive definite
    // and changes only values, so a warm pipeline takes the value-refresh
    // path.
    matrix::CsrMatrix& a = g.matrix;
    const auto rowPtr = a.rowPtr();
    const auto col = a.colIdx();
    auto val = a.values();
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = rowPtr[i]; k < rowPtr[i + 1]; ++k) {
        if (static_cast<std::size_t>(col[k]) == i) val[k] *= j.diagScale;
      }
    }
  }
  return g;
}

Method makeServiceMethod(bool mpir) {
  Method m;
  if (mpir) {
    m.config = json::parse(
        R"({"type": "mpir", "extendedType": "doubleword", "tolerance": 1e-10,
            "inner": {"type": "cg", "tolerance": 1e-4, "maxIterations": 100,
                      "preconditioner": {"type": "jacobi"}}})");
    m.tolerance = 1e-10;
    m.workRoundoff = kDoubleWordRoundoff;
    // The session hands back its float32 solution tensor.
    m.storeRoundoff = kFloat32Roundoff;
  } else {
    m.config = json::parse(
        R"({"type": "cg", "tolerance": 1e-5,
            "preconditioner": {"type": "jacobi"}})");
    m.tolerance = 1e-5;
    m.workRoundoff = m.storeRoundoff = kFloat32Roundoff;
  }
  return m;
}

const Method& serviceMethod(bool mpir) {
  static const Method kCg = makeServiceMethod(false);
  static const Method kMpir = makeServiceMethod(true);
  return mpir ? kMpir : kCg;
}

solver::ServiceOptions serviceOptions() {
  solver::ServiceOptions o;
  o.workers = 2;
  o.tiles = 16;
  o.hostThreads = 1;
  return o;
}

struct ServiceRun {
  std::vector<SolveRecord> jobs;
  double windowS = 0;
  solver::PlanCache::Stats cache;
  double queueWaitP50Ms = 0;
};

/// A closed loop from one client thread with two jobs outstanding. Runs
/// `count` jobs, or with count 0 until `seconds` passed and at least
/// kMinServiceJobs completed. Each job's wall time runs from submit() to
/// the return of its wait(), wrapped in spans when `spans` is set.
ServiceRun serviceWindow(solver::SolverService& service, std::uint64_t seed,
                         double seconds, std::size_t count, SpanLog* spans,
                         Output& out) {
  struct InFlight {
    std::size_t index, id;
    Clock::time_point t0;
    int span;
    Job job;
    matrix::GeneratedMatrix m;
    std::vector<double> rhs;
  };
  ServiceRun run;
  std::deque<InFlight> inflight;
  std::size_t next = 0;
  const auto start = Clock::now();
  auto more = [&] {
    if (count) return next < count;
    return secondsSince(start) < seconds || next < kMinServiceJobs;
  };
  auto submitNext = [&] {
    InFlight f;
    f.index = next++;
    f.job = makeJob(seed, f.index);
    f.m = jobMatrix(seed, f.job);
    f.rhs = seededRhs(seed, f.index, f.m.matrix.rows());
    const long solve = static_cast<long>(f.index);
    f.t0 = Clock::now();
    f.span = spans ? spans->begin("job", -1, solve) : -1;
    {
      std::optional<ScopedSpan> s;
      if (spans) s.emplace(*spans, "service.submit", f.span, solve);
      f.id = service.submit(f.m, serviceMethod(f.job.mpir).config, f.rhs);
    }
    inflight.push_back(std::move(f));
  };
  submitNext();
  if (more()) submitNext();
  while (!inflight.empty()) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    solver::JobResult res;
    {
      std::optional<ScopedSpan> s;
      if (spans) {
        s.emplace(*spans, "service.wait", f.span, static_cast<long>(f.index));
      }
      res = service.wait(f.id);
    }
    const auto t1 = Clock::now();
    if (spans) spans->end(f.span);
    SolveRecord r;
    r.index = f.index;
    r.wallMs = msBetween(f.t0, t1);
    r.simCycles = res.simCycles;
    r.iterations = res.solve.iterations;
    r.reportedResidual = res.solve.finalResidual;
    r.status = res.typedError ? "typed-error: " + res.message
                              : std::string(solver::toString(res.solve.status));
    r.cacheHit = res.planCacheHit;
    r.attempts = res.attempts;
    judge(r, f.m.matrix, f.rhs, res.x, serviceMethod(f.job.mpir));
    if (!r.ok) out.fail("job " + std::to_string(r.index) + ": " + r.error);
    run.jobs.push_back(std::move(r));
    if (more()) submitNext();
  }
  run.windowS = secondsSince(start);
  run.cache = service.planCacheStats();
  run.queueWaitP50Ms =
      service.metrics().histogram("service.queue_wait_ms").quantile(0.5);
  return run;
}

void baselineServiceJobs(std::uint64_t seed, std::vector<SolveRecord>& jobs,
                         Output& out) {
  // The first job of each structure against the double-precision baseline.
  std::vector<std::size_t> seenHot;
  for (SolveRecord& r : jobs) {
    const Job j = makeJob(seed, r.index);
    if (j.hot) {
      if (std::find(seenHot.begin(), seenHot.end(), j.structure) !=
          seenHot.end()) {
        continue;
      }
      seenHot.push_back(j.structure);
    }
    const matrix::GeneratedMatrix m = jobMatrix(seed, j);
    baselineCheck(out, m.matrix, seededRhs(seed, r.index, m.matrix.rows()),
                  serviceMethod(j.mpir), r, "job " + std::to_string(r.index));
  }
}

json::Value cacheJson(const ServiceRun& run) {
  json::Object o;
  o["hits"] = run.cache.hits;
  o["misses"] = run.cache.misses;
  o["evictions"] = run.cache.evictions;
  o["invalidations"] = run.cache.invalidations;
  o["queue_wait_ms_p50"] = run.queueWaitP50Ms;
  return json::Value(o);
}

void runService(std::uint64_t seed, double seconds, Output& out) {
  json::Array setups;
  std::unique_ptr<solver::SolverService> service;
  for (std::size_t k = 0; k < kServiceSetups; ++k) {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<solver::SolverService>(serviceOptions());
    setups.push_back(json::Value(secondsSince(t0)));
  }
  ServiceRun run = serviceWindow(*service, seed, seconds, 0, nullptr, out);
  service.reset();
  baselineServiceJobs(seed, run.jobs, out);
  out.doc["setup_s"] = json::Value(setups);
  out.doc["window_s"] = run.windowS;
  out.doc["solves"] = records(run.jobs);
  out.doc["service"] = cacheJson(run);
}

void traceService(std::uint64_t seed, double seconds,
                  const std::string& spansPath, Output& out) {
  SpanLog spans;
  // Each of the first jobs built cold and solved outside the service: the
  // plan-build, engine and simulated-cycle layers of the mix.
  std::vector<SolveRecord> mirrored;
  json::Array counters, builds;
  solver::SessionOptions sopts;
  sopts.tiles = serviceOptions().tiles;
  sopts.hostThreads = serviceOptions().hostThreads;
  for (std::size_t i = 0; i < kMirroredJobs; ++i) {
    const Job j = makeJob(seed, i);
    const matrix::GeneratedMatrix m = jobMatrix(seed, j);
    const Method& method = serviceMethod(j.mpir);
    const std::vector<double> rhs = seededRhs(seed, i, m.matrix.rows());
    Mirror mirror(m, sopts, method.config, spans, static_cast<long>(i));
    json::Object b;
    b["blockwise_transfers"] = mirror.blockwiseTransfers();
    b["sram_peak_bytes"] = mirror.sramPeakBytes();
    builds.push_back(json::Value(b));
    std::vector<double> x;
    json::Value c;
    SolveRecord r = mirror.solve(rhs, spans, static_cast<long>(i), -1, x, c);
    r.index = i;
    judge(r, m.matrix, rhs, x, method);
    if (!r.ok) out.fail("mirrored job " + std::to_string(i) + ": " + r.error);
    counters.push_back(c);
    mirrored.push_back(std::move(r));
  }

  // The traced service window, then the same jobs untraced.
  ServiceRun traced;
  {
    solver::SolverService service(serviceOptions());
    traced = serviceWindow(service, seed, seconds / 2, 0, &spans, out);
  }
  ServiceRun untraced;
  {
    solver::SolverService service(serviceOptions());
    untraced =
        serviceWindow(service, seed, 0, traced.jobs.size(), nullptr, out);
  }
  for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
    const std::string why = mismatch(traced.jobs[i], untraced.jobs[i]);
    if (!why.empty()) out.fail("determinism (traced vs untraced): " + why);
  }
  for (std::size_t i = 0; i < mirrored.size() && i < untraced.jobs.size();
       ++i) {
    const std::string why = mismatch(mirrored[i], untraced.jobs[i]);
    if (!why.empty()) out.fail("determinism (mirror vs service): " + why);
  }

  json::Object build;
  build["per_job"] = json::Value(builds);
  out.doc["build"] = json::Value(build);
  out.doc["solves"] = records(mirrored);
  out.doc["service_jobs"] = records(traced.jobs);
  out.doc["untraced"] = records(untraced.jobs);
  out.doc["counters"] = json::Value(counters);
  out.doc["service"] = cacheJson(traced);
  std::ofstream(spansPath) << spans.toJson().dump() << "\n";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "fem-ilu|fem-ilu-mpir|service-mix --seed N "
               "--seconds S --mode run|trace [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "run", spansPath;
  std::uint64_t seed = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--mode") mode = value;
    else if (key == "--spans") spansPath = value;
    else return usage(("unknown flag " + key).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(seconds > 0)) return usage("--seconds must be > 0");
  if (mode != "run" && mode != "trace") return usage("bad --mode");
  if (mode == "trace" && spansPath.empty()) {
    return usage("--mode trace needs --spans");
  }
  const std::optional<SessionWorkload> session = sessionWorkload(workload);
  if (!session && workload != "service-mix") return usage("unknown workload");

  Output out;
  json::Object meta;
  meta["workload"] = workload;
  meta["seed"] = static_cast<double>(seed);
  meta["mode"] = mode;
  meta["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  if (session) {
    meta["rows"] = session->matrix.matrix.rows();
    meta["tiles"] = solver::resolveSessionTopology(session->options)
                        .totalTiles();
    meta["host_threads"] = session->options.hostThreads;
  } else {
    meta["rows"] = kServiceRows;
    meta["tiles"] = serviceOptions().tiles;
    meta["host_threads"] =
        serviceOptions().workers * serviceOptions().hostThreads;
  }
  try {
    if (session && mode == "run") runSession(*session, seed, seconds, out);
    if (session && mode == "trace")
      traceSession(*session, seed, seconds, spansPath, out);
    if (!session && mode == "run") runService(seed, seconds, out);
    if (!session && mode == "trace")
      traceService(seed, seconds, spansPath, out);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  meta["peak_rss_mb"] = peakRssMb();
  out.doc["meta"] = json::Value(meta);
  out.doc["failures"] = json::Value(out.failures);
  std::printf("%s\n", json::Value(out.doc).dump().c_str());
  return 0;
}
