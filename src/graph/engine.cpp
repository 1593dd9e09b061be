#include "graph/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <thread>

#include "ipu/exchange.hpp"
#include "ipu/health.hpp"
#include "ipu/worker_pool.hpp"
#include "support/thread_pool.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

namespace graphene::graph {

namespace {

std::size_t resolveHostThreads(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* e = std::getenv("GRAPHENE_TEST_HOST_THREADS")) {
    const long v = std::strtol(e, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// Adapts the engine's tensor storage to the fault injector's view of the
/// machine (ipu::FaultSurface keeps the ipu layer independent of graph).
class EngineFaultSurface final : public ipu::FaultSurface {
 public:
  explicit EngineFaultSurface(Engine& engine) : engine_(engine) {}

  std::size_t numTensors() override { return engine_.graph().numTensors(); }

  std::string tensorName(std::size_t tensor) override {
    return engine_.graph().tensor(static_cast<TensorId>(tensor)).name;
  }

  std::size_t tensorElements(std::size_t tensor) override {
    return engine_.storageFor(static_cast<TensorId>(tensor)).totalElements();
  }

  void flipBit(std::size_t tensor, std::size_t element,
               unsigned bit) override {
    engine_.storageFor(static_cast<TensorId>(tensor)).flipBit(element, bit);
  }

  void zeroElement(std::size_t tensor, std::size_t element) override {
    TensorStorage& s = engine_.storageFor(static_cast<TensorId>(tensor));
    s.store(element, Scalar::zero(s.dtype()));
  }

  ipu::Profile& profile() override { return engine_.profile(); }

 private:
  Engine& engine_;
};

}  // namespace

/// VertexContext over a plan's precomputed argument windows; indices are
/// slice-relative, which enforces tile-local access. Holds a raw pointer to
/// the engine's storage array: during a compute superstep no tensors are
/// created, so the pointer is stable — including under tile-parallel
/// execution, where concurrent contexts touch disjoint regions.
class Engine::PlanVertexContext final : public VertexContext {
 public:
  PlanVertexContext(TensorStorage* storage, const PlanArg* args,
                    std::size_t numArgs)
      : storage_(storage), args_(args), numArgs_(numArgs) {}

  std::size_t numArgs() const override { return numArgs_; }

  std::size_t argSize(std::size_t arg) const override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    return args_[arg].count;
  }

  ipu::DType argType(std::size_t arg) const override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    return args_[arg].dtype;
  }

  Scalar load(std::size_t arg, std::size_t index) const override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    GRAPHENE_CHECK(index < args_[arg].count, "codelet read past its slice");
    return storage_[args_[arg].tensor].load(args_[arg].base + index);
  }

  void store(std::size_t arg, std::size_t index,
             const Scalar& value) override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    GRAPHENE_CHECK(index < args_[arg].count, "codelet write past its slice");
    storage_[args_[arg].tensor].store(args_[arg].base + index, value);
  }

  std::span<float> floatSpan(std::size_t arg) override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    auto whole = storage_[args_[arg].tensor].as<float>();
    return whole.subspan(args_[arg].base, args_[arg].count);
  }

  std::span<const std::int32_t> intSpan(std::size_t arg) const override {
    GRAPHENE_DCHECK(arg < numArgs_, "arg out of range");
    auto whole = storage_[args_[arg].tensor].as<std::int32_t>();
    return whole.subspan(args_[arg].base, args_[arg].count);
  }

 private:
  TensorStorage* storage_;
  const PlanArg* args_;
  std::size_t numArgs_;
};

Engine::Engine(Graph& graph, std::size_t numHostThreads)
    : graph_(graph), numHostThreads_(resolveHostThreads(numHostThreads)) {
  if (numHostThreads_ > 1) {
    hostPool_ = std::make_unique<support::ThreadPool>(numHostThreads_);
  }
  syncStorage();
}

Engine::~Engine() = default;

void Engine::setTraceSink(support::TraceSink* sink) {
  trace_ = sink;
  // Only fault-log entries appended from now on belong to this trace.
  tracedFaultEvents_ = profile_.faultEvents.size();
}

void Engine::setTileProfile(support::TileProfile* profile) {
  tileProfile_ = profile;
  sramTensorsCaptured_ = 0;
  if (tileProfile_ == nullptr) return;
  const ipu::IpuTarget& target = graph_.target();
  tileProfile_->init(target.totalTiles(), target.workersPerTile,
                     target.exchangeInstrCycles *
                         target.exchangeSendBytesPerCycle,
                     target.tilesPerIpu);
  captureSramSnapshot();
}

void Engine::captureSramSnapshot() {
  const ipu::TileMemoryLedger& ledger = graph_.ledger();
  const std::size_t nTiles = graph_.target().totalTiles();
  support::TileSramProfile& sram = tileProfile_->sram;
  sram.budgetBytes = ledger.budget();
  sram.usedBytes.resize(nTiles);
  sram.highWaterBytes.resize(nTiles);
  for (std::size_t t = 0; t < nTiles; ++t) {
    sram.usedBytes[t] = ledger.used(t);
    sram.highWaterBytes[t] = std::max(sram.highWaterBytes[t],
                                      ledger.highWater(t));
  }
  // Rebuild the per-tensor breakdown from the current graph (a successor
  // engine after a remap brings a fresh graph whose tensors replace the old
  // list; used/high-water above still reflect the machine being profiled).
  sram.tensors.clear();
  for (std::size_t i = 0; i < graph_.numTensors(); ++i) {
    const TensorInfo& info = graph_.tensor(static_cast<TensorId>(i));
    support::TileSramProfile::TensorSram t;
    t.name = info.name;
    t.dtype = ipu::dtypeName(info.dtype);
    t.bytesPerTile.resize(nTiles, 0);
    const std::size_t elemBytes = ipu::sizeOf(info.dtype);
    const std::size_t mapped =
        std::min(nTiles, info.mapping.sizePerTile.size());
    for (std::size_t tile = 0; tile < mapped; ++tile) {
      t.bytesPerTile[tile] = info.mapping.sizePerTile[tile] * elemBytes;
    }
    sram.tensors.push_back(std::move(t));
  }
  sramTensorsCaptured_ = graph_.numTensors();
}

void Engine::traceNewFaultEvents() {
  const auto& log = profile_.faultEvents;
  for (; tracedFaultEvents_ < log.size(); ++tracedFaultEvents_) {
    const ipu::FaultEvent& fe = log[tracedFaultEvents_];
    support::TraceEvent ev;
    ev.kind = fe.kind.rfind("recovery:", 0) == 0
                  ? support::TraceKind::Recovery
                  : support::TraceKind::Fault;
    ev.name = fe.kind;
    ev.startCycle = simClock_;
    ev.superstep = fe.superstep;
    ev.detail = fe.target.empty()
                    ? fe.detail
                    : fe.target + (fe.detail.empty() ? "" : ": " + fe.detail);
    trace_->record(std::move(ev));
  }
}

void Engine::syncStorage() {
  for (std::size_t i = storage_.size(); i < graph_.numTensors(); ++i) {
    storage_.emplace_back(graph_.tensor(static_cast<TensorId>(i)));
  }
}

TensorStorage& Engine::storageFor(TensorId id) {
  syncStorage();
  GRAPHENE_CHECK(id < storage_.size(), "invalid tensor id");
  return storage_[id];
}

Scalar Engine::readScalar(TensorId id) {
  // Replicated scalars are read from the control tile's replica — the one
  // the reduce/broadcast machinery keeps authoritative. Reading a fixed
  // tile 0 would return a frozen value once tile 0 is dead or excluded.
  const graph::TensorInfo& info = graph_.tensor(id);
  const std::size_t flat =
      info.replicated ? info.tileOffset(graph_.controlTile()) : 0;
  return storageFor(id).load(flat);
}

Scalar Engine::readScalarFinite(TensorId id) {
  Scalar value = readScalar(id);
  if (!std::isfinite(value.toHostDouble())) {
    throw NumericalError(detail::concatMessage(
        "non-finite value ", value.toString(), " read from tensor '",
        graph_.tensor(id).name, "'"));
  }
  return value;
}

void Engine::setExcludedTiles(const std::vector<std::size_t>& tiles) {
  tileExcluded_.clear();
  if (tiles.empty()) return;
  tileExcluded_.assign(graph_.target().totalTiles(), 0);
  for (std::size_t t : tiles) {
    GRAPHENE_CHECK(t < tileExcluded_.size(), "excluded tile ", t,
                   " out of range for ", tileExcluded_.size(), " tiles");
    tileExcluded_[t] = 1;
  }
}

void Engine::writeScalar(TensorId id, const Scalar& value) {
  TensorStorage& s = storageFor(id);
  if (graph_.tensor(id).replicated) {
    s.fill(value);  // one cast, then a typed fill over every replica
  } else {
    s.store(0, value);
  }
}

Scalar Engine::loadElement(TensorId id, std::size_t flatIndex) {
  return storageFor(id).load(flatIndex);
}

void Engine::storeElement(TensorId id, std::size_t flatIndex,
                          const Scalar& value) {
  storageFor(id).store(flatIndex, value);
}

void Engine::run(const ProgramPtr& program) {
  if (!program) return;
  syncStorage();
  switch (program->kind) {
    case Program::Kind::Sequence:
      for (const auto& child : program->children) run(child);
      break;
    case Program::Kind::Execute:
      runExecute(program->computeSet);
      break;
    case Program::Kind::Copy:
      runCopy(program);
      break;
    case Program::Kind::Repeat:
      for (std::size_t i = 0; i < program->repeatCount; ++i) {
        run(program->body);
      }
      break;
    case Program::Kind::RepeatWhile:
      while (true) {
        run(program->condProgram);
        if (!readScalar(program->condTensor).truthy()) break;
        run(program->body);
      }
      break;
    case Program::Kind::If:
      run(program->condProgram);
      if (readScalar(program->condTensor).truthy()) {
        run(program->thenBody);
      } else {
        run(program->elseBody);
      }
      break;
    case Program::Kind::HostCall:
      if (program->hostFn) program->hostFn(*this);
      // Solver guards append recovery actions to the fault log from host
      // callbacks; mirror them into the trace right away so the timeline
      // stays ordered.
      if (trace_ != nullptr) traceNewFaultEvents();
      break;
  }
}

const Engine::ExecPlan& Engine::planFor(ComputeSetId csId) {
  if (plans_.size() <= csId) plans_.resize(csId + 1);
  ExecPlan& plan = plans_[csId];
  const ComputeSet& cs = graph_.computeSet(csId);
  if (plan.builtVertices == cs.vertices.size()) return plan;

  // Rebuild from scratch: vertices are appended to compute sets in bulk at
  // graph-construction time, so in practice this runs once per compute set
  // and every later execution is a cache hit.
  plan = ExecPlan{};
  std::map<std::size_t, std::vector<std::size_t>> byTile;
  for (std::size_t i = 0; i < cs.vertices.size(); ++i) {
    byTile[cs.vertices[i].tile].push_back(i);
  }
  plan.vertexOrder.reserve(cs.vertices.size());
  plan.argStart.reserve(cs.vertices.size() + 1);
  for (const auto& [tile, vertexIds] : byTile) {
    plan.tasks.push_back(TileTask{tile, plan.vertexOrder.size(),
                                  vertexIds.size()});
    for (std::size_t vi : vertexIds) {
      plan.argStart.push_back(plan.args.size());
      plan.vertexOrder.push_back(vi);
      for (const TensorSlice& s : cs.vertices[vi].args) {
        TensorStorage& ts = storageFor(s.tensor);
        plan.args.push_back(PlanArg{s.tensor, ts.tileOffset(s.tile) + s.begin,
                                    s.count, ts.dtype()});
      }
    }
  }
  plan.argStart.push_back(plan.args.size());
  plan.builtVertices = cs.vertices.size();
  return plan;
}

double Engine::runTileTask(const ComputeSet& cs, const ExecPlan& plan,
                           TensorStorage* storage, std::size_t task,
                           double* workerBusyOut) {
  const TileTask& t = plan.tasks[task];
  ipu::WorkerPool pool(graph_.target().workersPerTile);
  std::size_t nextWorker = 0;
  double workerBusy = 0;  // issue slots used, summed over the 6 workers
  for (std::size_t p = t.firstVertex; p < t.firstVertex + t.count; ++p) {
    const Vertex& v = cs.vertices[plan.vertexOrder[p]];
    PlanVertexContext ctx(storage, plan.args.data() + plan.argStart[p],
                          plan.argStart[p + 1] - plan.argStart[p]);
    VertexCost cost = graph_.codelet(v.codelet).run(ctx);
    if (cost.wholeTile) {
      // Supervisor codelet driving all workers itself: serialise against
      // everything else on the tile.
      pool.sync();
      for (std::size_t w = 0; w < pool.numWorkers(); ++w) {
        pool.addCycles(w, cost.workerCycles);
      }
      workerBusy += cost.workerCycles * static_cast<double>(pool.numWorkers());
    } else {
      pool.addCycles(nextWorker, cost.workerCycles);
      nextWorker = (nextWorker + 1) % pool.numWorkers();
      workerBusy += cost.workerCycles;
    }
  }
  if (workerBusyOut != nullptr) *workerBusyOut = workerBusy;
  return pool.elapsed();
}

void Engine::runExecute(ComputeSetId csId) {
  syncStorage();  // materialise any tensors created since the last program
  const ComputeSet& cs = graph_.computeSet(csId);
  const ipu::IpuTarget& target = graph_.target();
  const ExecPlan& plan = planFor(csId);

  // Permanent faults: activation events and persistent SRAM damage are
  // applied serially before the tiles run; the per-task dead-tile query
  // below is a pure function of the plan, so it is safe from the pool.
  const bool hardFaults = faultPlan_ != nullptr && faultPlan_->hasHardFaults();
  if (hardFaults) {
    EngineFaultSurface surface(*this);
    faultPlan_->onComputeSuperstepStart(profile_.computeSupersteps, surface);
  }

  // Simulate every tile of the superstep, one TileTask per tile with data.
  // Tasks write to disjoint storage regions and to their own tileCycles_
  // slot, so running them on the host pool is race-free and — because each
  // task's arithmetic is self-contained — bit-identical to the serial loop.
  // A dead tile executes nothing: it charges its watchdog-scale cycle count
  // and leaves its storage exactly as the previous superstep left it.
  TensorStorage* storage = storage_.data();
  const std::size_t nTasks = plan.tasks.size();
  const std::size_t superstepIndex = profile_.computeSupersteps;
  const bool tileProfiling = tileProfile_ != nullptr;
  if (tileProfiling) {
    if (graph_.numTensors() != sramTensorsCaptured_) captureSramSnapshot();
    tileBusy_.assign(nTasks, 0.0);
  }
  auto taskCycles = [&](std::size_t ti) -> double {
    const std::size_t tile = plan.tasks[ti].tile;
    if (!tileExcluded_.empty() && tileExcluded_[tile]) return 0.0;
    if (hardFaults) {
      if (faultPlan_->tileDead(tile, superstepIndex)) {
        return faultPlan_->deadTileCycles(tile);
      }
      const std::size_t ipu = target.ipuOfTile(tile);
      if (faultPlan_->ipuDead(ipu, superstepIndex)) {
        return faultPlan_->deadIpuCycles(ipu);
      }
    }
    return runTileTask(cs, plan, storage, ti,
                       tileProfiling ? &tileBusy_[ti] : nullptr);
  };
  tileCycles_.assign(nTasks, 0.0);
  if (hostPool_ != nullptr && nTasks > 1) {
    hostPool_->parallelFor(nTasks, [&](std::size_t ti) {
      tileCycles_[ti] = taskCycles(ti);
    });
  } else {
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      tileCycles_[ti] = taskCycles(ti);
    }
  }
  // Tile-cycle distribution of this superstep: the max is the BSP critical
  // path; min/mean and the straggler tile id feed the straggler stats and
  // the trace. One serial pass in task order, so the result is bit-identical
  // at every host thread count.
  double maxTileCycles = 0;
  double minTileCycles = 0;
  double sumTileCycles = 0;
  std::size_t stragglerTask = 0;
  for (std::size_t ti = 0; ti < nTasks; ++ti) {
    const double c = tileCycles_[ti];
    sumTileCycles += c;
    if (ti == 0 || c < minTileCycles) minTileCycles = c;
    if (c > maxTileCycles) {
      maxTileCycles = c;
      stragglerTask = ti;
    }
  }
  const double meanTileCycles =
      nTasks > 0 ? sumTileCycles / static_cast<double>(nTasks) : 0.0;
  const std::size_t stragglerTile =
      nTasks > 0 ? plan.tasks[stragglerTask].tile : SIZE_MAX;
  profile_.verticesExecuted += cs.vertices.size();

  // Watchdog: report every tile's cycle count from this serial pass, so
  // trips and dead-tile confirmations are bit-identical at any host thread
  // count. The abort (if armed) fires after the superstep is committed.
  if (health_ != nullptr) {
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      health_->observeCompute(superstepIndex, plan.tasks[ti].tile,
                              tileCycles_[ti], profile_);
    }
  }

  // Fault injection: SRAM upsets land between supersteps; a stalled tile
  // delays the BSP barrier, so its extra cycles join the critical path.
  if (faultPlan_ != nullptr) {
    EngineFaultSurface surface(*this);
    maxTileCycles +=
        faultPlan_->afterComputeSuperstep(profile_.computeSupersteps, surface);
  }

  // Compute supersteps end with each IPU's *internal* sync; the IPUs sync in
  // parallel, so the cost does not grow with the pod size. Global syncs are
  // only paid when an exchange crosses IPUs (priced in priceExchange).
  profile_.computeCycles[cs.category] += maxTileCycles;
  profile_.superstepStats[cs.category].record(profile_.computeSupersteps,
                                              minTileCycles, meanTileCycles,
                                              maxTileCycles, stragglerTile);
  profile_.syncCycles += target.syncCyclesOnChip;
  profile_.computeSupersteps += 1;

  // Tile-level attribution, from the same serial reduction (deterministic at
  // any host thread count). The superstep's critical path — including any
  // injected stall, mirroring profile_.computeCycles above — is charged to
  // the straggler tile, so per-category tile sums reproduce computeCycles
  // exactly; every other tile books the gap as barrier idle.
  if (tileProfiling) {
    support::TileCategoryProfile& cat = tileProfile_->category(cs.category);
    cat.supersteps += 1;
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      const std::size_t tile = plan.tasks[ti].tile;
      cat.busyCycles[tile] += tileCycles_[ti];
      cat.workerBusyCycles[tile] += tileBusy_[ti];
      cat.barrierIdleCycles[tile] += maxTileCycles - tileCycles_[ti];
    }
    if (nTasks > 0) cat.criticalCycles[stragglerTile] += maxTileCycles;
    tileProfile_->computeSupersteps += 1;
    tileProfile_->syncCycles += target.syncCyclesOnChip;
  }
  for (const auto& [name, value] : cs.perExecMetrics) {
    profile_.metrics.addCounter(name, value);
  }

  if (trace_ != nullptr) {
    support::TraceEvent ev;
    ev.kind = support::TraceKind::ComputeSuperstep;
    ev.name = cs.category;
    ev.startCycle = simClock_;
    ev.durationCycles = maxTileCycles;
    ev.superstep = profile_.computeSupersteps - 1;
    ev.tileMin = minTileCycles;
    ev.tileMean = meanTileCycles;
    ev.tileMax = maxTileCycles;
    ev.stragglerTile = stragglerTile;
    ev.activeTiles = nTasks;
    trace_->record(std::move(ev));

    support::TraceEvent sync;
    sync.kind = support::TraceKind::Sync;
    sync.name = "sync";
    sync.startCycle = simClock_ + maxTileCycles;
    sync.durationCycles = target.syncCyclesOnChip;
    sync.superstep = profile_.computeSupersteps - 1;
    trace_->record(std::move(sync));
  }
  simClock_ += maxTileCycles + target.syncCyclesOnChip;
  if (trace_ != nullptr) traceNewFaultEvents();

  // The superstep is fully committed (profile, trace, clock); a confirmed
  // dead tile now surfaces as a typed error the solver layer can catch to
  // blacklist, repartition and resume.
  if (health_ != nullptr && health_->abortPending()) {
    health_->clearAbort();
    std::string tiles;
    for (std::size_t t : health_->deadTiles()) {
      if (!tiles.empty()) tiles += ", ";
      tiles += std::to_string(t);
    }
    std::string message;
    if (!health_->deadIpus().empty()) {
      std::string ipus;
      for (std::size_t i : health_->deadIpus()) {
        if (!ipus.empty()) ipus += ", ";
        ipus += std::to_string(i);
      }
      message = detail::concatMessage(
          "hard fault: chip(s) ", ipus,
          " declared dead by watchdog escalation (tiles ", tiles, ")");
    } else {
      message = detail::concatMessage(
          "hard fault: tile(s) ", tiles,
          " confirmed dead by the superstep watchdog");
    }
    throw ipu::HardFaultError(message, health_->deadTiles(),
                              health_->deadIpus());
  }
  checkCancelled();
}

void Engine::checkCancelled() {
  if (!cancel_) return;
  const char* reason = cancel_(*this);
  if (reason == nullptr) return;
  throw CancelledError(
      detail::concatMessage("solve cancelled after superstep ",
                            profile_.computeSupersteps, " at cycle ",
                            simClock_, ": ", reason),
      reason);
}

ipu::Transfer Engine::CopyPlan::fabricTransfer(std::size_t i) const {
  const Transfer& t = transfers[i];
  return ipu::Transfer{t.srcTile,
                       std::vector<std::size_t>(dstTiles.begin() + t.firstDst,
                                                dstTiles.begin() + t.endDst),
                       t.bytes};
}

const Engine::CopyPlan& Engine::copyPlanFor(const ProgramPtr& node) {
  if (auto it = copyPlans_.find(node.get()); it != copyPlans_.end()) {
    return it->second;
  }
  CopyPlan cp;
  cp.node = node;
  cp.transfers.reserve(node->copies.size());
  for (const CopySegment& seg : node->copies) {
    GRAPHENE_CHECK(seg.src != kInvalidTensor && seg.dst != kInvalidTensor,
                   "copy segment with invalid tensors");
    TensorStorage& src = storageFor(seg.src);
    TensorStorage& dst = storageFor(seg.dst);
    CopyPlan::Transfer t;
    t.src = seg.src;
    t.dst = seg.dst;
    t.srcTile = seg.srcTile;
    t.srcFlat = src.tileOffset(seg.srcTile) + seg.srcBegin;
    t.count = seg.count;
    t.bytes = seg.count * ipu::sizeOf(src.dtype());
    t.firstDst = cp.dstFlats.size();
    for (const CopySegment::Destination& d : seg.dsts) {
      const std::size_t dstFlat = dst.tileOffset(d.tile) + d.begin;
      if (seg.src == seg.dst && seg.srcTile == d.tile &&
          t.srcFlat == dstFlat) {
        continue;  // no-op self copy
      }
      cp.dstFlats.push_back(dstFlat);
      cp.dstTiles.push_back(d.tile);
    }
    t.endDst = cp.dstFlats.size();
    if (t.endDst > t.firstDst) cp.transfers.push_back(t);
  }
  std::vector<ipu::Transfer> fabric;
  fabric.reserve(cp.transfers.size());
  for (std::size_t i = 0; i < cp.transfers.size(); ++i) {
    fabric.push_back(cp.fabricTransfer(i));
  }
  cp.stats = ipu::priceExchange(graph_.target(), fabric);
  return copyPlans_.emplace(node.get(), std::move(cp)).first->second;
}

void Engine::runCopy(const ProgramPtr& node) {
  // Every exchange superstep replays its Copy step's cached plan. With no
  // hard faults the priced cost is the plan's; a zero-byte exchange (empty
  // halos) moves nothing and charges the (zero) cached cost.
  const CopyPlan& cp = copyPlanFor(node);
  const std::size_t exchangeIndex = profile_.exchangeSupersteps;
  const std::size_t computeIndex = profile_.computeSupersteps;
  const bool hardFaults = faultPlan_ != nullptr && faultPlan_->hasHardFaults();
  EngineFaultSurface surface(*this);
  std::vector<ipu::Transfer> live;  // hard faults: transfers that get sent
  for (std::size_t ti = 0; ti < cp.transfers.size(); ++ti) {
    const CopyPlan::Transfer& t = cp.transfers[ti];
    // A dead tile never sends: its outgoing transfers neither deliver nor
    // cost fabric cycles, and every destination keeps its stale data. A dead
    // chip is the same verdict for all of its tiles at once. (Both triggers
    // are on the compute-superstep clock.)
    if (hardFaults) {
      if (faultPlan_->tileDead(t.srcTile, computeIndex) ||
          faultPlan_->ipuDead(graph_.target().ipuOfTile(t.srcTile),
                              computeIndex)) {
        continue;
      }
      live.push_back(cp.fabricTransfer(ti));
    }
    // Fault injection: a transfer can be dropped (payload lost, destination
    // keeps its stale data) or corrupted (payload lands with a flipped bit).
    // Either way the fabric spent the cycles, so pricing is unchanged.
    const ipu::TransferFate fate =
        faultPlan_ == nullptr
            ? ipu::TransferFate::Deliver
            : faultPlan_->onTransfer(exchangeIndex, t.dst, surface);
    if (fate == ipu::TransferFate::Drop) continue;
    for (std::size_t d = t.firstDst; d < t.endDst; ++d) {
      storage_[t.dst].copyFrom(storage_[t.src], t.srcFlat, cp.dstFlats[d],
                               t.count);
    }
    if (fate == ipu::TransferFate::Corrupt) {
      faultPlan_->corruptDelivered(exchangeIndex, t.dst,
                                   cp.dstFlats[t.firstDst], t.count, surface);
    }
  }

  support::TileTrafficMatrix* traffic =
      tileProfile_ != nullptr ? &tileProfile_->traffic : nullptr;
  ipu::ExchangeStats stats = cp.stats;
  if (hardFaults) {
    const ipu::LinkFaults linkFaults =
        faultPlan_->linkFaults(exchangeIndex, computeIndex);
    stats = ipu::priceExchange(graph_.target(), live, traffic, &linkFaults);
    // Degraded links slow the whole exchange phase: BSP exchanges complete
    // when the last transfer lands, so one slow link stretches the phase.
    const double stretch =
        faultPlan_->onExchangeSuperstep(exchangeIndex, surface);
    stats.cycles *= stretch;
    stats.intraCycles *= stretch;
    stats.interCycles *= stretch;
  } else if (traffic != nullptr) {
    const std::span<const std::size_t> tiles(cp.dstTiles);
    for (const CopyPlan::Transfer& t : cp.transfers) {
      traffic->recordTransfer(
          t.srcTile, tiles.subspan(t.firstDst, t.endDst - t.firstDst),
          t.bytes);
    }
  }

  profile_.exchangeCycles += stats.cycles;
  profile_.exchangeIntraCycles += stats.intraCycles;
  profile_.exchangeInterCycles += stats.interCycles;
  profile_.exchangeSupersteps += 1;
  profile_.exchangeInstructions += stats.instructions;
  profile_.exchangedBytes += stats.totalBytes;
  profile_.interIpuBytes += stats.interIpuBytes;
  profile_.interIpuMessages += stats.interIpuMessages;
  if (tileProfile_ != nullptr) {
    tileProfile_->exchangeCycles += stats.cycles;
    tileProfile_->exchangeInterCycles += stats.interCycles;
    tileProfile_->exchangeSupersteps += 1;
  }
  for (const auto& [name, value] : node->copyMetrics) {
    profile_.metrics.addCounter(name, value);
  }

  if (trace_ != nullptr) {
    support::TraceEvent ev;
    ev.kind = support::TraceKind::ExchangeSuperstep;
    ev.name = "exchange";
    ev.startCycle = simClock_;
    ev.durationCycles = stats.cycles;
    ev.superstep = exchangeIndex;
    ev.bytes = stats.totalBytes;
    trace_->record(std::move(ev));
  }
  simClock_ += stats.cycles;
  if (trace_ != nullptr) traceNewFaultEvents();
  checkCancelled();
}

}  // namespace graphene::graph
