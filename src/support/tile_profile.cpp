#include "support/tile_profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace graphene::support {

// -- TileTrafficMatrix ------------------------------------------------------

void TileTrafficMatrix::init(std::size_t numTiles) {
  if (numTiles_ != 0) {
    GRAPHENE_CHECK(numTiles_ == numTiles,
                   "traffic matrix re-initialised with a different tile "
                   "count: had ",
                   numTiles_, ", got ", numTiles);
    return;
  }
  numTiles_ = numTiles;
  bytes_.assign(numTiles * numTiles, 0);
  messages_.assign(numTiles * numTiles, 0);
}

void TileTrafficMatrix::recordTransfer(std::size_t srcTile,
                                       std::span<const std::size_t> dstTiles,
                                       std::size_t bytes) {
  GRAPHENE_DCHECK(srcTile < numTiles_, "traffic src tile out of range");
  std::size_t remote = 0;
  for (std::size_t dst : dstTiles) {
    if (dst != srcTile) ++remote;
  }
  if (remote == 0) return;  // purely tile-local copy: no fabric traffic

  // Split the payload integer-exactly over the remote destinations: the
  // first `bytes % remote` each carry one extra byte. This keeps the matrix
  // total equal to the fabric's payload accounting (which serialises a
  // broadcast payload once on the send side).
  const std::uint64_t each = bytes / remote;
  const std::uint64_t extra = bytes % remote;
  std::uint64_t delivered = 0;
  for (std::size_t dst : dstTiles) {
    if (dst == srcTile) continue;
    GRAPHENE_DCHECK(dst < numTiles_, "traffic dst tile out of range");
    const std::size_t cell = srcTile * numTiles_ + dst;
    bytes_[cell] += each + (delivered < extra ? 1 : 0);
    messages_[cell] += 1;
    ++delivered;
  }
  totalBytes_ += bytes;
  totalMessages_ += remote;
  sendInstructions_ += 1;
}

std::uint64_t TileTrafficMatrix::rowSum(std::size_t src) const {
  std::uint64_t sum = 0;
  for (std::size_t dst = 0; dst < numTiles_; ++dst) {
    sum += bytes_[src * numTiles_ + dst];
  }
  return sum;
}

std::uint64_t TileTrafficMatrix::colSum(std::size_t dst) const {
  std::uint64_t sum = 0;
  for (std::size_t src = 0; src < numTiles_; ++src) {
    sum += bytes_[src * numTiles_ + dst];
  }
  return sum;
}

// -- TileSramProfile --------------------------------------------------------

std::size_t TileSramProfile::peakUsed() const {
  std::size_t peak = 0;
  for (std::size_t hw : highWaterBytes) peak = std::max(peak, hw);
  return peak;
}

// -- TileProfile ------------------------------------------------------------

void TileProfile::init(std::size_t tiles, std::size_t workers,
                       double overheadBytesPerMsg, std::size_t tilesPerChip) {
  if (tilesPerChip == 0) tilesPerChip = tiles;
  if (numTiles != 0) {
    GRAPHENE_CHECK(numTiles == tiles,
                   "tile profile re-attached to an engine with a different "
                   "tile count: had ",
                   numTiles, ", got ", tiles);
    GRAPHENE_CHECK(tilesPerIpu == tilesPerChip,
                   "tile profile re-attached to an engine with a different "
                   "pod shape: had ",
                   tilesPerIpu, " tiles/IPU, got ", tilesPerChip);
    return;
  }
  numTiles = tiles;
  tilesPerIpu = tilesPerChip;
  workersPerTile = workers;
  overheadBytesPerMessage = overheadBytesPerMsg;
  traffic.init(tiles);
}

TileCategoryProfile& TileProfile::category(const std::string& name) {
  TileCategoryProfile& cat = categories[name];
  if (cat.busyCycles.empty()) {
    cat.busyCycles.assign(numTiles, 0.0);
    cat.workerBusyCycles.assign(numTiles, 0.0);
    cat.barrierIdleCycles.assign(numTiles, 0.0);
    cat.criticalCycles.assign(numTiles, 0.0);
  }
  return cat;
}

double TileProfile::categoryCycles(const std::string& name) const {
  auto it = categories.find(name);
  if (it == categories.end()) return 0.0;
  double sum = 0.0;
  for (double c : it->second.criticalCycles) sum += c;
  return sum;
}

double TileProfile::totalComputeCycles() const {
  double sum = 0.0;
  for (const auto& [name, cat] : categories) {
    (void)name;
    for (double c : cat.criticalCycles) sum += c;
  }
  return sum;
}

std::vector<double> TileProfile::busyByTile() const {
  std::vector<double> busy(numTiles, 0.0);
  for (const auto& [name, cat] : categories) {
    (void)name;
    for (std::size_t t = 0; t < numTiles; ++t) busy[t] += cat.busyCycles[t];
  }
  return busy;
}

std::vector<double> TileProfile::criticalByTile() const {
  std::vector<double> crit(numTiles, 0.0);
  for (const auto& [name, cat] : categories) {
    (void)name;
    for (std::size_t t = 0; t < numTiles; ++t) crit[t] += cat.criticalCycles[t];
  }
  return crit;
}

// -- analyses ---------------------------------------------------------------

ImbalanceStats loadImbalance(const TileProfile& profile, std::size_t buckets) {
  ImbalanceStats stats;
  const std::vector<double> busy = profile.busyByTile();
  double sum = 0.0;
  double minBusy = 0.0, maxBusy = 0.0;
  for (double b : busy) {
    if (b <= 0.0) continue;
    if (stats.activeTiles == 0) {
      minBusy = maxBusy = b;
    } else {
      minBusy = std::min(minBusy, b);
      maxBusy = std::max(maxBusy, b);
    }
    ++stats.activeTiles;
    sum += b;
  }
  if (stats.activeTiles == 0) return stats;
  stats.minCycles = minBusy;
  stats.maxCycles = maxBusy;
  stats.meanCycles = sum / static_cast<double>(stats.activeTiles);
  stats.imbalance =
      stats.meanCycles > 0.0 ? stats.maxCycles / stats.meanCycles : 1.0;

  if (buckets == 0) buckets = 1;
  stats.histLow = minBusy;
  stats.histHigh = maxBusy;
  stats.histogram.assign(buckets, 0);
  const double width = (maxBusy - minBusy) / static_cast<double>(buckets);
  for (double b : busy) {
    if (b <= 0.0) continue;
    std::size_t bucket =
        width > 0.0 ? static_cast<std::size_t>((b - minBusy) / width) : 0;
    if (bucket >= buckets) bucket = buckets - 1;  // max lands in last bucket
    ++stats.histogram[bucket];
  }
  return stats;
}

std::vector<StragglerInfo> topStragglers(const TileProfile& profile,
                                         std::size_t k) {
  const std::vector<double> crit = profile.criticalByTile();
  const std::vector<double> busy = profile.busyByTile();

  std::vector<std::size_t> order(profile.numTiles);
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (crit[a] != crit[b]) return crit[a] > crit[b];
                     return a < b;  // deterministic tie-break: lower tile id
                   });

  std::vector<StragglerInfo> top;
  for (std::size_t t : order) {
    if (top.size() >= k || crit[t] <= 0.0) break;
    StragglerInfo info;
    info.tile = t;
    info.criticalCycles = crit[t];
    info.busyCycles = busy[t];
    double workerBusy = 0.0;
    for (const auto& [name, cat] : profile.categories) {
      workerBusy += cat.workerBusyCycles[t];
      if (cat.criticalCycles[t] > 0.0) {
        info.categories.emplace_back(name, cat.criticalCycles[t]);
      }
    }
    const double capacity =
        busy[t] * static_cast<double>(profile.workersPerTile);
    info.workerUtilisation = capacity > 0.0 ? workerBusy / capacity : 0.0;
    std::stable_sort(info.categories.begin(), info.categories.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second != b.second) return a.second > b.second;
                       return a.first < b.first;
                     });
    top.push_back(std::move(info));
  }
  return top;
}

double trafficLocalityScore(const TileProfile& profile) {
  const TileTrafficMatrix& traffic = profile.traffic;
  if (traffic.empty()) return 0.0;

  // Spatial factor: payload-weighted mean of 1/(1 + |src - dst|). 1.0 when
  // every byte travels to an adjacent tile, decaying with fabric distance.
  const std::size_t n = traffic.numTiles();
  double weighted = 0.0;
  double attributed = 0.0;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      const double b = static_cast<double>(traffic.bytes(src, dst));
      if (b <= 0.0) continue;
      const double dist = src > dst ? static_cast<double>(src - dst)
                                    : static_cast<double>(dst - src);
      weighted += b / (1.0 + dist);
      attributed += b;
    }
  }
  const double spatial = attributed > 0.0 ? weighted / attributed : 0.0;

  // Wire-efficiency factor: payload over payload plus per-send-instruction
  // overhead priced in send-port bytes. Halo reordering collapses per-cell
  // sends into region broadcasts, cutting instructions for the same payload
  // — exactly the effect this factor rewards.
  const double payload = static_cast<double>(traffic.totalBytes());
  const double overhead = profile.overheadBytesPerMessage *
                          static_cast<double>(traffic.sendInstructions());
  const double efficiency =
      payload > 0.0 ? payload / (payload + overhead) : 0.0;

  return spatial * efficiency;
}

TrafficLocalitySplit trafficLocalitySplit(const TileProfile& profile) {
  TrafficLocalitySplit split;
  const TileTrafficMatrix& traffic = profile.traffic;
  if (traffic.empty()) return split;
  const std::size_t n = traffic.numTiles();
  // Payload-weighted proximity per side: tile distance on-chip, IPU
  // distance across links (the gateway fans out on the remote chip, so tile
  // offsets inside the remote IPU are irrelevant to link traffic).
  double intraWeighted = 0, intraBytes = 0;
  double interWeighted = 0, interBytes = 0;
  for (std::size_t src = 0; src < n; ++src) {
    const std::size_t srcIpu = profile.ipuOfTile(src);
    for (std::size_t dst = 0; dst < n; ++dst) {
      const double b = static_cast<double>(traffic.bytes(src, dst));
      if (b <= 0.0) continue;
      const std::size_t dstIpu = profile.ipuOfTile(dst);
      if (srcIpu == dstIpu) {
        const double dist = src > dst ? static_cast<double>(src - dst)
                                      : static_cast<double>(dst - src);
        intraWeighted += b / (1.0 + dist);
        intraBytes += b;
        split.intraBytes += traffic.bytes(src, dst);
      } else {
        const double dist = srcIpu > dstIpu
                                ? static_cast<double>(srcIpu - dstIpu)
                                : static_cast<double>(dstIpu - srcIpu);
        interWeighted += b / (1.0 + dist);
        interBytes += b;
        split.interBytes += traffic.bytes(src, dst);
      }
    }
  }
  // Same wire-efficiency factor as the combined score: per-send-instruction
  // overhead is charged on the sending tile's port either way.
  const double payload = static_cast<double>(traffic.totalBytes());
  const double overhead = profile.overheadBytesPerMessage *
                          static_cast<double>(traffic.sendInstructions());
  const double efficiency =
      payload > 0.0 ? payload / (payload + overhead) : 0.0;
  split.intraScore =
      intraBytes > 0.0 ? (intraWeighted / intraBytes) * efficiency : 0.0;
  split.interScore =
      interBytes > 0.0 ? (interWeighted / interBytes) * efficiency : 0.0;
  return split;
}

std::vector<CategoryClassification> classifyCategories(
    const TileProfile& profile) {
  const double totalCompute = profile.totalComputeCycles();
  std::vector<CategoryClassification> out;
  for (const auto& [name, cat] : profile.categories) {
    CategoryClassification c;
    c.category = name;
    double busySum = 0.0, workerBusySum = 0.0;
    std::size_t active = 0;
    for (std::size_t t = 0; t < profile.numTiles; ++t) {
      c.criticalCycles += cat.criticalCycles[t];
      if (cat.busyCycles[t] > 0.0) {
        busySum += cat.busyCycles[t];
        workerBusySum += cat.workerBusyCycles[t];
        ++active;
      }
    }
    c.shareOfCompute =
        totalCompute > 0.0 ? c.criticalCycles / totalCompute : 0.0;
    const double meanBusy =
        active > 0 ? busySum / static_cast<double>(active) : 0.0;
    // Critical path over the mean busy time of active tiles: 1.0 means the
    // straggler was no worse than the average tile.
    c.imbalance = meanBusy > 0.0 ? c.criticalCycles / meanBusy : 1.0;
    const double capacity =
        busySum * static_cast<double>(profile.workersPerTile);
    c.workerUtilisation = capacity > 0.0 ? workerBusySum / capacity : 0.0;
    if (c.imbalance > 1.25) {
      c.klass = "imbalance-bound";
    } else if (c.workerUtilisation >= 0.5) {
      c.klass = "compute-bound";
    } else {
      c.klass = "worker-idle";
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::string runClassification(const TileProfile& profile) {
  const double compute = profile.totalComputeCycles();
  return profile.exchangeCycles > compute ? "exchange-bound" : "compute-bound";
}

// -- diff -------------------------------------------------------------------

TileProfileDiff diffTileProfiles(const TileProfile& a, const TileProfile& b) {
  TileProfileDiff diff;
  diff.totalCyclesA = a.totalCycles();
  diff.totalCyclesB = b.totalCycles();
  diff.computeCyclesA = a.totalComputeCycles();
  diff.computeCyclesB = b.totalComputeCycles();
  diff.exchangeCyclesA = a.exchangeCycles;
  diff.exchangeCyclesB = b.exchangeCycles;
  diff.trafficBytesA = a.traffic.totalBytes();
  diff.trafficBytesB = b.traffic.totalBytes();
  diff.interIpuBytesA = trafficLocalitySplit(a).interBytes;
  diff.interIpuBytesB = trafficLocalitySplit(b).interBytes;
  diff.messagesA = a.traffic.totalMessages();
  diff.messagesB = b.traffic.totalMessages();
  diff.localityA = trafficLocalityScore(a);
  diff.localityB = trafficLocalityScore(b);
  diff.imbalanceA = loadImbalance(a).imbalance;
  diff.imbalanceB = loadImbalance(b).imbalance;

  std::map<std::string, TileProfileDiff::CategoryDelta> deltas;
  for (const auto& [name, cat] : a.categories) {
    (void)cat;
    deltas[name].category = name;
    deltas[name].cyclesA = a.categoryCycles(name);
  }
  for (const auto& [name, cat] : b.categories) {
    (void)cat;
    deltas[name].category = name;
    deltas[name].cyclesB = b.categoryCycles(name);
  }
  for (auto& [name, delta] : deltas) {
    (void)name;
    diff.categories.push_back(std::move(delta));
  }
  return diff;
}

bool diffWithinThresholds(const TileProfileDiff& diff,
                          double maxCyclesRegressFrac, double minLocalityRatio,
                          std::string* why,
                          double maxInterBytesRegressFrac) {
  if (maxCyclesRegressFrac >= 0.0 && diff.totalCyclesA > 0.0) {
    const double regress = diff.cyclesRatio() - 1.0;
    if (regress > maxCyclesRegressFrac) {
      if (why != nullptr) {
        std::ostringstream oss;
        oss << "total cycles regressed " << formatSig(regress * 100.0, 3)
            << "% (limit " << formatSig(maxCyclesRegressFrac * 100.0, 3)
            << "%): " << formatSig(diff.totalCyclesA, 6) << " -> "
            << formatSig(diff.totalCyclesB, 6);
        *why = oss.str();
      }
      return false;
    }
  }
  if (minLocalityRatio >= 0.0 && diff.localityA > 0.0) {
    if (diff.localityRatio() < minLocalityRatio) {
      if (why != nullptr) {
        std::ostringstream oss;
        oss << "traffic locality fell to " << formatSig(diff.localityRatio(), 4)
            << "x of baseline (minimum " << formatSig(minLocalityRatio, 4)
            << "x): " << formatSig(diff.localityA, 4) << " -> "
            << formatSig(diff.localityB, 4);
        *why = oss.str();
      }
      return false;
    }
  }
  if (maxInterBytesRegressFrac >= 0.0 && diff.interIpuBytesA > 0) {
    const double regress = diff.interIpuBytesRatio() - 1.0;
    if (regress > maxInterBytesRegressFrac) {
      if (why != nullptr) {
        std::ostringstream oss;
        oss << "inter-IPU bytes regressed " << formatSig(regress * 100.0, 3)
            << "% (limit " << formatSig(maxInterBytesRegressFrac * 100.0, 3)
            << "%): " << diff.interIpuBytesA << " -> " << diff.interIpuBytesB;
        *why = oss.str();
      }
      return false;
    }
  }
  return true;
}

// -- JSON -------------------------------------------------------------------

namespace {

json::Array doublesToJson(const std::vector<double>& values) {
  json::Array arr;
  arr.reserve(values.size());
  for (double v : values) arr.emplace_back(v);
  return arr;
}

json::Array u64ToJson(const std::vector<std::uint64_t>& values) {
  json::Array arr;
  arr.reserve(values.size());
  for (std::uint64_t v : values) {
    arr.emplace_back(static_cast<double>(v));
  }
  return arr;
}

json::Array sizesToJson(const std::vector<std::size_t>& values) {
  json::Array arr;
  arr.reserve(values.size());
  for (std::size_t v : values) arr.emplace_back(v);
  return arr;
}

std::vector<double> doublesFromJson(const json::Value& v, std::size_t expect,
                                    const char* what) {
  const json::Array& arr = v.asArray();
  GRAPHENE_CHECK(arr.size() == expect, "tile profile JSON: ", what, " has ",
                 arr.size(), " entries, expected ", expect);
  std::vector<double> out;
  out.reserve(arr.size());
  for (const json::Value& e : arr) out.push_back(e.asNumber());
  return out;
}

std::vector<std::uint64_t> u64FromJson(const json::Value& v, std::size_t expect,
                                       const char* what) {
  const json::Array& arr = v.asArray();
  GRAPHENE_CHECK(arr.size() == expect, "tile profile JSON: ", what, " has ",
                 arr.size(), " entries, expected ", expect);
  std::vector<std::uint64_t> out;
  out.reserve(arr.size());
  for (const json::Value& e : arr) {
    out.push_back(static_cast<std::uint64_t>(e.asNumber()));
  }
  return out;
}

std::vector<std::size_t> sizesFromJson(const json::Value& v, std::size_t expect,
                                       const char* what) {
  std::vector<std::uint64_t> u = u64FromJson(v, expect, what);
  return std::vector<std::size_t>(u.begin(), u.end());
}

}  // namespace

json::Value tileProfileToJson(const TileProfile& profile) {
  json::Object doc;
  doc["schemaVersion"] = TileProfile::kSchemaVersion;
  doc["numTiles"] = profile.numTiles;
  doc["tilesPerIpu"] = profile.tilesPerIpu;
  doc["workersPerTile"] = profile.workersPerTile;
  doc["overheadBytesPerMessage"] = profile.overheadBytesPerMessage;
  doc["label"] = profile.label;
  doc["computeSupersteps"] = profile.computeSupersteps;
  doc["exchangeSupersteps"] = profile.exchangeSupersteps;
  doc["exchangeCycles"] = profile.exchangeCycles;
  doc["exchangeInterCycles"] = profile.exchangeInterCycles;
  doc["syncCycles"] = profile.syncCycles;

  json::Object categories;
  for (const auto& [name, cat] : profile.categories) {
    json::Object c;
    c["supersteps"] = cat.supersteps;
    c["busyCycles"] = doublesToJson(cat.busyCycles);
    c["workerBusyCycles"] = doublesToJson(cat.workerBusyCycles);
    c["barrierIdleCycles"] = doublesToJson(cat.barrierIdleCycles);
    c["criticalCycles"] = doublesToJson(cat.criticalCycles);
    categories[name] = std::move(c);
  }
  doc["categories"] = std::move(categories);

  json::Object traffic;
  traffic["bytes"] = u64ToJson(profile.traffic.bytesPlane());
  traffic["messages"] = u64ToJson(profile.traffic.messagesPlane());
  traffic["totalBytes"] = static_cast<double>(profile.traffic.totalBytes());
  traffic["totalMessages"] =
      static_cast<double>(profile.traffic.totalMessages());
  traffic["sendInstructions"] =
      static_cast<double>(profile.traffic.sendInstructions());
  doc["traffic"] = std::move(traffic);

  json::Object sram;
  sram["budgetBytes"] = profile.sram.budgetBytes;
  sram["usedBytes"] = sizesToJson(profile.sram.usedBytes);
  sram["highWaterBytes"] = sizesToJson(profile.sram.highWaterBytes);
  json::Array tensors;
  for (const TileSramProfile::TensorSram& t : profile.sram.tensors) {
    json::Object tj;
    tj["name"] = t.name;
    tj["dtype"] = t.dtype;
    tj["bytesPerTile"] = sizesToJson(t.bytesPerTile);
    tensors.emplace_back(std::move(tj));
  }
  sram["tensors"] = std::move(tensors);
  doc["sram"] = std::move(sram);

  return json::Value(std::move(doc));
}

TileProfile tileProfileFromJson(const json::Value& doc) {
  GRAPHENE_CHECK(doc.isObject(), "tile profile JSON: document is not an object");
  const std::int64_t version = doc.getOr("schemaVersion", std::int64_t{0});
  // v1 reports predate pods: no tilesPerIpu (= numTiles) and no inter-IPU
  // cycle split (= 0). Both defaults below express exactly that.
  GRAPHENE_CHECK(version == 1 || version == TileProfile::kSchemaVersion,
                 "tile profile JSON: unsupported schemaVersion ", version,
                 " (this build reads versions 1 and ",
                 TileProfile::kSchemaVersion, ")");

  TileProfile profile;
  const std::size_t n = static_cast<std::size_t>(doc.at("numTiles").asInt());
  profile.init(n,
               static_cast<std::size_t>(doc.at("workersPerTile").asInt()),
               doc.at("overheadBytesPerMessage").asNumber(),
               static_cast<std::size_t>(
                   doc.getOr("tilesPerIpu", static_cast<std::int64_t>(n))));
  profile.label = doc.getOr("label", std::string());
  profile.computeSupersteps =
      static_cast<std::size_t>(doc.getOr("computeSupersteps", std::int64_t{0}));
  profile.exchangeSupersteps = static_cast<std::size_t>(
      doc.getOr("exchangeSupersteps", std::int64_t{0}));
  profile.exchangeCycles = doc.getOr("exchangeCycles", 0.0);
  profile.exchangeInterCycles = doc.getOr("exchangeInterCycles", 0.0);
  profile.syncCycles = doc.getOr("syncCycles", 0.0);

  for (const auto& [name, cj] : doc.at("categories").asObject()) {
    TileCategoryProfile& cat = profile.category(name);
    cat.supersteps =
        static_cast<std::size_t>(cj.getOr("supersteps", std::int64_t{0}));
    cat.busyCycles = doublesFromJson(cj.at("busyCycles"), n, "busyCycles");
    cat.workerBusyCycles =
        doublesFromJson(cj.at("workerBusyCycles"), n, "workerBusyCycles");
    cat.barrierIdleCycles =
        doublesFromJson(cj.at("barrierIdleCycles"), n, "barrierIdleCycles");
    cat.criticalCycles =
        doublesFromJson(cj.at("criticalCycles"), n, "criticalCycles");
  }

  const json::Value& traffic = doc.at("traffic");
  profile.traffic.mutableBytesPlane() =
      u64FromJson(traffic.at("bytes"), n * n, "traffic bytes");
  profile.traffic.mutableMessagesPlane() =
      u64FromJson(traffic.at("messages"), n * n, "traffic messages");
  profile.traffic.setTotals(
      static_cast<std::uint64_t>(traffic.at("totalBytes").asNumber()),
      static_cast<std::uint64_t>(traffic.at("totalMessages").asNumber()),
      static_cast<std::uint64_t>(traffic.at("sendInstructions").asNumber()));

  const json::Value& sram = doc.at("sram");
  profile.sram.budgetBytes =
      static_cast<std::size_t>(sram.at("budgetBytes").asInt());
  profile.sram.usedBytes = sizesFromJson(sram.at("usedBytes"), n, "usedBytes");
  profile.sram.highWaterBytes =
      sizesFromJson(sram.at("highWaterBytes"), n, "highWaterBytes");
  for (const json::Value& tj : sram.at("tensors").asArray()) {
    TileSramProfile::TensorSram t;
    t.name = tj.at("name").asString();
    t.dtype = tj.at("dtype").asString();
    t.bytesPerTile = sizesFromJson(tj.at("bytesPerTile"), n, "bytesPerTile");
    profile.sram.tensors.push_back(std::move(t));
  }
  return profile;
}

// -- text tables ------------------------------------------------------------

TextTable tileProfileSummaryTable(const TileProfile& profile) {
  TextTable table({"Category", "Supersteps", "Cycles", "% of compute",
                   "Imbalance", "Worker util", "Class"});
  const std::vector<CategoryClassification> classes =
      classifyCategories(profile);
  for (const CategoryClassification& c : classes) {
    auto it = profile.categories.find(c.category);
    const std::size_t supersteps =
        it != profile.categories.end() ? it->second.supersteps : 0;
    table.addRow({c.category, std::to_string(supersteps),
                  formatSig(c.criticalCycles, 6),
                  formatSig(c.shareOfCompute * 100.0, 3) + "%",
                  formatSig(c.imbalance, 4) + "x",
                  formatSig(c.workerUtilisation * 100.0, 3) + "%", c.klass});
  }
  return table;
}

TextTable tileStragglerTable(const TileProfile& profile, std::size_t k) {
  TextTable table({"Tile", "Critical cycles", "Busy cycles", "Worker util",
                   "Dominant categories"});
  for (const StragglerInfo& s : topStragglers(profile, k)) {
    std::string cats;
    std::size_t shown = 0;
    for (const auto& [name, cycles] : s.categories) {
      if (shown++ == 3) break;
      if (!cats.empty()) cats += ", ";
      cats += name + " (" + formatSig(cycles, 4) + ")";
    }
    table.addRow({std::to_string(s.tile), formatSig(s.criticalCycles, 6),
                  formatSig(s.busyCycles, 6),
                  formatSig(s.workerUtilisation * 100.0, 3) + "%", cats});
  }
  return table;
}

TextTable tileProfileDiffTable(const TileProfileDiff& diff) {
  TextTable table({"Metric", "A", "B", "B/A"});
  auto ratio = [](double a, double b) {
    return a > 0.0 ? formatSig(b / a, 4) + "x" : "n/a";
  };
  table.addRow({"Total cycles", formatSig(diff.totalCyclesA, 6),
                formatSig(diff.totalCyclesB, 6),
                ratio(diff.totalCyclesA, diff.totalCyclesB)});
  table.addRow({"Compute cycles", formatSig(diff.computeCyclesA, 6),
                formatSig(diff.computeCyclesB, 6),
                ratio(diff.computeCyclesA, diff.computeCyclesB)});
  table.addRow({"Exchange cycles", formatSig(diff.exchangeCyclesA, 6),
                formatSig(diff.exchangeCyclesB, 6),
                ratio(diff.exchangeCyclesA, diff.exchangeCyclesB)});
  table.addRow({"Traffic bytes",
                formatBytes(static_cast<double>(diff.trafficBytesA)),
                formatBytes(static_cast<double>(diff.trafficBytesB)),
                ratio(static_cast<double>(diff.trafficBytesA),
                      static_cast<double>(diff.trafficBytesB))});
  table.addRow({"Inter-IPU bytes",
                formatBytes(static_cast<double>(diff.interIpuBytesA)),
                formatBytes(static_cast<double>(diff.interIpuBytesB)),
                ratio(static_cast<double>(diff.interIpuBytesA),
                      static_cast<double>(diff.interIpuBytesB))});
  table.addRow({"Messages", std::to_string(diff.messagesA),
                std::to_string(diff.messagesB),
                ratio(static_cast<double>(diff.messagesA),
                      static_cast<double>(diff.messagesB))});
  table.addRow({"Traffic locality", formatSig(diff.localityA, 4),
                formatSig(diff.localityB, 4),
                ratio(diff.localityA, diff.localityB)});
  table.addRow({"Load imbalance", formatSig(diff.imbalanceA, 4) + "x",
                formatSig(diff.imbalanceB, 4) + "x",
                ratio(diff.imbalanceA, diff.imbalanceB)});
  for (const TileProfileDiff::CategoryDelta& d : diff.categories) {
    table.addRow({"  cycles: " + d.category, formatSig(d.cyclesA, 6),
                  formatSig(d.cyclesB, 6), ratio(d.cyclesA, d.cyclesB)});
  }
  return table;
}

// -- HTML -------------------------------------------------------------------

namespace {

std::string htmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// White -> amber -> red ramp for a normalised intensity in [0, 1].
std::string heatColor(double t) {
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  const int r = 255;
  const int g = static_cast<int>(245.0 - 160.0 * t);
  const int b = static_cast<int>(235.0 - 225.0 * t);
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%02x%02x%02x", r, g, b);
  return buf;
}

/// Renders a near-square tile grid of per-tile values as fixed-size cells.
void appendTileHeatmap(std::ostream& os, const std::string& title,
                       const std::vector<double>& values,
                       const std::string& unit) {
  double maxValue = 0.0;
  for (double v : values) maxValue = std::max(maxValue, v);
  std::size_t cols = 1;
  while (cols * cols < values.size()) ++cols;

  os << "<h3>" << htmlEscape(title) << "</h3>\n";
  os << "<div class=\"grid\" style=\"grid-template-columns:repeat(" << cols
     << ",14px)\">\n";
  for (std::size_t t = 0; t < values.size(); ++t) {
    const double norm = maxValue > 0.0 ? values[t] / maxValue : 0.0;
    os << "<div class=\"cell\" style=\"background:" << heatColor(norm)
       << "\" title=\"tile " << t << ": " << formatSig(values[t], 5) << " "
       << unit << "\"></div>";
    if ((t + 1) % cols == 0) os << "\n";
  }
  os << "</div>\n<p class=\"scale\">0 &rarr; " << formatSig(maxValue, 5) << " "
     << htmlEscape(unit) << "</p>\n";
}

void appendTable(std::ostream& os, const TextTable& table) {
  os << "<pre>" << htmlEscape(table.render()) << "</pre>\n";
}

}  // namespace

std::string tileProfileToHtml(const TileProfile& profile) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
     << "<title>Graphene tile profile</title>\n<style>\n"
     << "body{font-family:sans-serif;margin:24px;max-width:1100px}\n"
     << ".grid{display:grid;gap:1px}\n"
     << ".cell{width:14px;height:14px}\n"
     << ".tcell{width:10px;height:10px}\n"
     << ".scale{color:#666;font-size:12px}\n"
     << "pre{background:#f6f6f6;padding:8px;overflow-x:auto}\n"
     << "</style>\n</head>\n<body>\n";

  os << "<h1>Tile profile";
  if (!profile.label.empty()) os << " &mdash; " << htmlEscape(profile.label);
  os << "</h1>\n";

  const ImbalanceStats imbalance = loadImbalance(profile);
  os << "<p>" << profile.numTiles << " tiles";
  if (profile.numIpus() > 1) {
    os << " (" << profile.numIpus() << " IPUs &times; " << profile.tilesPerIpu
       << " tiles)";
  }
  os << " &middot; " << profile.workersPerTile << " workers/tile &middot; "
     << profile.computeSupersteps << " compute / "
     << profile.exchangeSupersteps << " exchange supersteps &middot; "
     << "total " << formatSig(profile.totalCycles(), 6) << " cycles ("
     << runClassification(profile) << ") &middot; load imbalance "
     << formatSig(imbalance.imbalance, 4) << "x &middot; traffic locality "
     << formatSig(trafficLocalityScore(profile), 4) << "</p>\n";
  if (profile.numIpus() > 1) {
    const TrafficLocalitySplit split = trafficLocalitySplit(profile);
    os << "<p>Two-level exchange: intra-IPU "
       << formatBytes(static_cast<double>(split.intraBytes)) << " (locality "
       << formatSig(split.intraScore, 4) << ") &middot; inter-IPU "
       << formatBytes(static_cast<double>(split.interBytes)) << " (locality "
       << formatSig(split.interScore, 4) << ") &middot; IPU-Link share of "
       << "exchange " << formatSig(profile.exchangeInterCycles, 6) << " of "
       << formatSig(profile.exchangeCycles, 6) << " cycles</p>\n";
  }

  os << "<h2>Categories</h2>\n";
  appendTable(os, tileProfileSummaryTable(profile));

  os << "<h2>Stragglers</h2>\n";
  appendTable(os, tileStragglerTable(profile));

  os << "<h2>Tile heatmaps</h2>\n";
  appendTileHeatmap(os, "Busy cycles per tile", profile.busyByTile(),
                    "cycles");
  appendTileHeatmap(os, "Critical-path attribution per tile",
                    profile.criticalByTile(), "cycles");
  if (!profile.sram.highWaterBytes.empty()) {
    std::vector<double> sram(profile.sram.highWaterBytes.begin(),
                             profile.sram.highWaterBytes.end());
    appendTileHeatmap(os, "SRAM high-water per tile (budget " +
                              formatBytes(static_cast<double>(
                                  profile.sram.budgetBytes)) +
                              ")",
                      sram, "bytes");
  }

  if (!profile.traffic.empty() && profile.numIpus() > 1) {
    // Pod runs: split the per-tile send volume into the on-chip fabric
    // share and the IPU-Link share — the two components the pod-aware
    // partitioner and halo aggregation trade against each other.
    const std::size_t n = profile.traffic.numTiles();
    std::vector<double> intraSent(n, 0.0), interSent(n, 0.0);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        const auto b = static_cast<double>(profile.traffic.bytes(src, dst));
        if (b <= 0.0) continue;
        if (profile.ipuOfTile(src) == profile.ipuOfTile(dst)) {
          intraSent[src] += b;
        } else {
          interSent[src] += b;
        }
      }
    }
    appendTileHeatmap(os, "Intra-IPU bytes sent per tile", intraSent, "bytes");
    appendTileHeatmap(os, "Inter-IPU (IPU-Link) bytes sent per tile",
                      interSent, "bytes");
  }

  if (!profile.traffic.empty()) {
    const std::size_t n = profile.traffic.numTiles();
    double maxBytes = 0.0;
    for (std::uint64_t b : profile.traffic.bytesPlane()) {
      maxBytes = std::max(maxBytes, static_cast<double>(b));
    }
    // Log-ish scale: small payloads must stay visible next to broadcasts.
    os << "<h2>Exchange traffic (src row &times; dst column)</h2>\n";
    os << "<div class=\"grid\" style=\"grid-template-columns:repeat(" << n
       << ",10px)\">\n";
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        const double b =
            static_cast<double>(profile.traffic.bytes(src, dst));
        const double norm =
            b > 0.0 && maxBytes > 0.0
                ? 0.15 + 0.85 * std::log1p(b) / std::log1p(maxBytes)
                : 0.0;
        os << "<div class=\"tcell\" style=\"background:" << heatColor(norm)
           << "\" title=\"" << src << " &rarr; " << dst << ": "
           << formatBytes(b) << ", "
           << profile.traffic.messages(src, dst) << " msg\"></div>";
      }
      os << "\n";
    }
    os << "</div>\n<p class=\"scale\">"
       << formatBytes(static_cast<double>(profile.traffic.totalBytes()))
       << " payload in " << profile.traffic.totalMessages()
       << " messages (" << profile.traffic.sendInstructions()
       << " send instructions)</p>\n";
  }

  if (!profile.sram.tensors.empty()) {
    os << "<h2>SRAM by tensor</h2>\n";
    TextTable table({"Tensor", "Dtype", "Total", "Max per tile"});
    std::vector<const TileSramProfile::TensorSram*> tensors;
    for (const TileSramProfile::TensorSram& t : profile.sram.tensors) {
      tensors.push_back(&t);
    }
    std::stable_sort(tensors.begin(), tensors.end(),
                     [](const auto* a, const auto* b) {
                       std::size_t ta = 0, tb = 0;
                       for (std::size_t v : a->bytesPerTile) ta += v;
                       for (std::size_t v : b->bytesPerTile) tb += v;
                       if (ta != tb) return ta > tb;
                       return a->name < b->name;
                     });
    std::size_t shown = 0;
    for (const auto* t : tensors) {
      if (shown++ == 20) break;
      std::size_t total = 0, maxTile = 0;
      for (std::size_t v : t->bytesPerTile) {
        total += v;
        maxTile = std::max(maxTile, v);
      }
      table.addRow({t->name, t->dtype,
                    formatBytes(static_cast<double>(total)),
                    formatBytes(static_cast<double>(maxTile))});
    }
    appendTable(os, table);
    if (tensors.size() > 20) {
      os << "<p class=\"scale\">(" << tensors.size() - 20
         << " smaller tensors omitted)</p>\n";
    }
  }

  os << "</body>\n</html>\n";
  return os.str();
}

}  // namespace graphene::support
