// Tile-level profiling — the spatial lens on the simulated IPU.
//
// The aggregate Profile (cycles per category) and the TraceSink timeline
// answer "how many" and "when", but the paper's performance story is
// *spatial*: solver speed is set by the straggler tile, the 612 kB SRAM
// budget per tile gates what fits, and the §IV halo reordering exists to
// reshape the tile-to-tile exchange pattern. A TileProfile records, when
// attached to an Engine:
//
//   categories   per compute-set category × tile: busy cycles (tile-visible
//                superstep time), worker-busy cycles (issue slots actually
//                used across the 6 worker threads), barrier-idle cycles
//                (time spent waiting for the superstep's straggler), and
//                critical-path cycles (each superstep's duration attributed
//                to the tile that set it — the per-category tile sums
//                reproduce Profile::computeCycles exactly)
//   traffic      a tile×tile matrix of exchange payload bytes and messages,
//                folded from each Copy step's planned transfers (through
//                ipu::priceExchange when hard faults re-price an exchange)
//                with recordTransfer(). Broadcast payload is split
//                integer-exactly over the destinations, so the matrix total
//                equals Profile::exchangedBytes
//   sram         per-tile SRAM occupancy and high-water from the graph's
//                memory ledger, broken down by tensor
//
// Like the trace layer it is pay-for-what-you-use (every engine emission
// site is one null-pointer test; nothing here runs when detached) and
// deterministic: all recording happens in the engine's serial reduction
// passes, so reports are bit-identical at every host thread count.
//
// Analysis passes derive load-imbalance histograms, top-K stragglers with
// the categories that made them slow, a traffic-locality score (the metric
// the halo-reordering A/B moves), and a roofline-style compute-vs-exchange
// classification. Exporters serialise a report as JSON, as a single-file
// HTML page with inline heatmaps, and as text tables; diffTileProfiles
// compares two reports (the `graphene-prof` CLI fronts all of this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/table.hpp"

namespace graphene::support {

/// Tile×tile exchange traffic, accumulated over every exchange superstep.
///
/// Attribution follows the fabric cost model: a broadcast serialises its
/// payload once on the send side, so the payload bytes of a transfer are
/// split across its remote destinations (remainder bytes to the first
/// ones — integer-exact, no fractional bytes). Row sums are therefore the
/// bytes each tile pushed into the fabric, column sums the share each tile
/// pulled out, and the grand total equals Profile::exchangedBytes. A
/// `message` is one payload delivery to one destination tile; one `send
/// instruction` is charged per transfer regardless of fan-out (what the
/// exchange model prices per-instruction overhead on).
class TileTrafficMatrix {
 public:
  TileTrafficMatrix() = default;
  explicit TileTrafficMatrix(std::size_t numTiles) { init(numTiles); }

  void init(std::size_t numTiles);
  std::size_t numTiles() const { return numTiles_; }

  /// Records one transfer of `bytes` from `srcTile` to `dstTiles`.
  /// Destinations equal to the source are tile-local copies and ignored; a
  /// transfer with no remote destination records nothing.
  void recordTransfer(std::size_t srcTile,
                      std::span<const std::size_t> dstTiles,
                      std::size_t bytes);

  std::uint64_t bytes(std::size_t src, std::size_t dst) const {
    return bytes_[src * numTiles_ + dst];
  }
  std::uint64_t messages(std::size_t src, std::size_t dst) const {
    return messages_[src * numTiles_ + dst];
  }

  /// Payload bytes sent by / received by one tile (row / column sums).
  std::uint64_t rowSum(std::size_t src) const;
  std::uint64_t colSum(std::size_t dst) const;

  std::uint64_t totalBytes() const { return totalBytes_; }
  std::uint64_t totalMessages() const { return totalMessages_; }
  std::uint64_t sendInstructions() const { return sendInstructions_; }

  bool empty() const { return totalMessages_ == 0; }

  // Flat row-major planes (exporters; kept in sync by recordTransfer).
  const std::vector<std::uint64_t>& bytesPlane() const { return bytes_; }
  const std::vector<std::uint64_t>& messagesPlane() const { return messages_; }
  std::vector<std::uint64_t>& mutableBytesPlane() { return bytes_; }
  std::vector<std::uint64_t>& mutableMessagesPlane() { return messages_; }
  void setTotals(std::uint64_t bytes, std::uint64_t messages,
                 std::uint64_t sends) {
    totalBytes_ = bytes;
    totalMessages_ = messages;
    sendInstructions_ = sends;
  }

 private:
  std::size_t numTiles_ = 0;
  std::vector<std::uint64_t> bytes_;     // row-major [src][dst]
  std::vector<std::uint64_t> messages_;  // deliveries per (src, dst)
  std::uint64_t totalBytes_ = 0;
  std::uint64_t totalMessages_ = 0;
  std::uint64_t sendInstructions_ = 0;
};

/// Per-tile cycle attribution for one compute-set category.
struct TileCategoryProfile {
  std::size_t supersteps = 0;

  /// Tile-visible superstep time (max over the tile's worker clocks),
  /// summed over this category's supersteps. The imbalance heatmap.
  std::vector<double> busyCycles;

  /// Issue slots actually used across the tile's worker threads (the
  /// busy side of the worker busy/idle split; idle is
  /// workersPerTile × busyCycles − workerBusyCycles).
  std::vector<double> workerBusyCycles;

  /// Cycles spent waiting at the BSP barrier for the superstep's straggler
  /// (superstep critical path minus this tile's own time, summed).
  std::vector<double> barrierIdleCycles;

  /// Each superstep's critical path attributed to the tile that set it.
  /// Summing this plane over tiles reproduces the category's
  /// Profile::computeCycles entry exactly (same dyadic cycle values, only
  /// re-binned by straggler).
  std::vector<double> criticalCycles;
};

/// Per-tile SRAM occupancy snapshot, broken down by tensor.
struct TileSramProfile {
  std::size_t budgetBytes = 0;
  std::vector<std::size_t> usedBytes;       // ledger occupancy per tile
  std::vector<std::size_t> highWaterBytes;  // ledger high-water per tile

  struct TensorSram {
    std::string name;
    std::string dtype;
    std::vector<std::size_t> bytesPerTile;
  };
  std::vector<TensorSram> tensors;  // graph order

  std::size_t peakUsed() const;
};

/// The full tile-resolution report of one run. Filled by the Engine
/// (Engine::setTileProfile); an accumulating collector, so a SolveSession
/// keeps one across hard-fault remap attempts and the report covers the
/// whole solve.
struct TileProfile {
  /// v2 adds the pod shape (tilesPerIpu) and the IPU-Link share of the
  /// exchange phase; v1 documents load as single-chip (tilesPerIpu =
  /// numTiles) and is still accepted by tileProfileFromJson.
  static constexpr int kSchemaVersion = 2;

  std::size_t numTiles = 0;
  /// Tiles per IPU chip; numTiles / tilesPerIpu is the pod size. Equal to
  /// numTiles on a single chip (and for v1 reports).
  std::size_t tilesPerIpu = 0;
  std::size_t workersPerTile = 0;
  /// Send-port bytes one transfer instruction's overhead is worth
  /// (exchangeInstrCycles × exchangeSendBytesPerCycle) — the constant the
  /// traffic-locality score charges per message.
  double overheadBytesPerMessage = 0;
  std::string label;  // e.g. the solver chain name

  std::map<std::string, TileCategoryProfile> categories;
  TileTrafficMatrix traffic;
  TileSramProfile sram;

  double exchangeCycles = 0;
  /// IPU-Link share of exchangeCycles (0 on a single chip).
  double exchangeInterCycles = 0;
  double syncCycles = 0;
  std::size_t computeSupersteps = 0;
  std::size_t exchangeSupersteps = 0;

  /// IPU index owning a tile under this report's pod shape.
  std::size_t ipuOfTile(std::size_t tile) const {
    return tilesPerIpu > 0 ? tile / tilesPerIpu : 0;
  }
  std::size_t numIpus() const {
    return tilesPerIpu > 0 ? numTiles / tilesPerIpu : 1;
  }

  /// Sizes every per-tile structure (idempotent; re-attaching the same
  /// collector to a rebuilt engine validates the geometry instead).
  /// `tilesPerChip` = 0 means a single chip (tilesPerIpu = tiles).
  void init(std::size_t tiles, std::size_t workers, double overheadBytesPerMsg,
            std::size_t tilesPerChip = 0);

  /// The category's per-tile planes, created and sized on first use.
  TileCategoryProfile& category(const std::string& name);

  /// Sum of a category's criticalCycles plane — equals the category's
  /// Profile::computeCycles entry.
  double categoryCycles(const std::string& name) const;
  double totalComputeCycles() const;
  double totalCycles() const {
    return totalComputeCycles() + exchangeCycles + syncCycles;
  }

  /// Per-tile busy cycles summed over all categories.
  std::vector<double> busyByTile() const;
  /// Per-tile critical-path attribution summed over all categories.
  std::vector<double> criticalByTile() const;
};

// -- analyses ---------------------------------------------------------------

/// Load-imbalance statistics over the per-tile total busy cycles.
struct ImbalanceStats {
  std::size_t activeTiles = 0;  // tiles with any busy cycles
  double minCycles = 0;
  double meanCycles = 0;
  double maxCycles = 0;
  /// Critical path over mean busy time of active tiles (1.0 = balanced).
  double imbalance = 1.0;
  /// Histogram of active tiles' busy cycles over [histLow, histHigh] in
  /// equal-width buckets.
  double histLow = 0;
  double histHigh = 0;
  std::vector<std::size_t> histogram;
};

ImbalanceStats loadImbalance(const TileProfile& profile,
                             std::size_t buckets = 10);

/// One straggler tile: how much critical path it set and where it spent
/// its own time.
struct StragglerInfo {
  std::size_t tile = 0;
  double criticalCycles = 0;  // critical path this tile was charged with
  double busyCycles = 0;      // the tile's own busy time
  double workerUtilisation = 0;  // workerBusy / (workers × busy)
  /// Categories that made the tile slow, largest critical share first.
  std::vector<std::pair<std::string, double>> categories;
};

/// Top `k` tiles by critical-path attribution, descending (ties broken by
/// lower tile id — deterministic).
std::vector<StragglerInfo> topStragglers(const TileProfile& profile,
                                         std::size_t k = 8);

/// Traffic-locality score in (0, 1]: spatial locality (payload-weighted
/// 1/(1+|src−dst|) proximity) × wire efficiency (payload over payload plus
/// per-message instruction overhead priced in send-port bytes). Blockwise
/// halo reordering raises the efficiency factor by collapsing per-cell
/// sends into region broadcasts; a partitioning that keeps neighbours on
/// nearby tiles raises the spatial factor. 0 when there was no traffic.
double trafficLocalityScore(const TileProfile& profile);

/// Two-level split of the traffic matrix and the locality score under the
/// report's pod shape. Intra pairs live on one chip (spatial factor decays
/// with tile distance, as in trafficLocalityScore); inter pairs cross
/// IPU-Links (spatial factor decays with *IPU* distance — what the pod-aware
/// partitioner and halo aggregation move). Scores are 0 for an empty side.
struct TrafficLocalitySplit {
  std::uint64_t intraBytes = 0;
  std::uint64_t interBytes = 0;
  double intraScore = 0;
  double interScore = 0;
};

TrafficLocalitySplit trafficLocalitySplit(const TileProfile& profile);

/// Roofline-style classification of one category: how its critical path
/// splits between useful worker issue and the two stall ceilings.
struct CategoryClassification {
  std::string category;
  double criticalCycles = 0;
  double shareOfCompute = 0;      // of total compute critical path
  double imbalance = 1.0;         // critical path / mean busy of active tiles
  double workerUtilisation = 0;   // workerBusy / (workers × busy)
  /// "compute-bound" (workers busy), "worker-idle" (serial codelets /
  /// latency), or "imbalance-bound" (straggler-dominated).
  std::string klass;
};

std::vector<CategoryClassification> classifyCategories(
    const TileProfile& profile);

/// Whole-run verdict: "exchange-bound" when the exchange phase outweighs
/// compute, else "compute-bound".
std::string runClassification(const TileProfile& profile);

// -- comparison (A/B runs) --------------------------------------------------

/// Structural comparison of two reports (A = baseline, B = candidate).
struct TileProfileDiff {
  double totalCyclesA = 0, totalCyclesB = 0;
  double computeCyclesA = 0, computeCyclesB = 0;
  double exchangeCyclesA = 0, exchangeCyclesB = 0;
  std::uint64_t trafficBytesA = 0, trafficBytesB = 0;
  std::uint64_t interIpuBytesA = 0, interIpuBytesB = 0;
  std::uint64_t messagesA = 0, messagesB = 0;
  double localityA = 0, localityB = 0;
  double imbalanceA = 1.0, imbalanceB = 1.0;

  struct CategoryDelta {
    std::string category;
    double cyclesA = 0, cyclesB = 0;
  };
  std::vector<CategoryDelta> categories;  // union of both, name order

  double cyclesRatio() const {
    return totalCyclesA > 0 ? totalCyclesB / totalCyclesA : 1.0;
  }
  double localityRatio() const {
    return localityA > 0 ? localityB / localityA : 1.0;
  }
  double interIpuBytesRatio() const {
    return interIpuBytesA > 0 ? static_cast<double>(interIpuBytesB) /
                                    static_cast<double>(interIpuBytesA)
                              : 1.0;
  }
};

TileProfileDiff diffTileProfiles(const TileProfile& a, const TileProfile& b);

/// Regression gate for the diff: fails when B's total cycles regress past
/// `maxCyclesRegressFrac` (0 = any regression fails; < 0 disables the
/// check), B's locality falls below `minLocalityRatio` × A's (< 0
/// disables), or B's inter-IPU bytes regress past
/// `maxInterBytesRegressFrac` (< 0 disables). Returns a human-readable
/// verdict in `*why` when failing.
bool diffWithinThresholds(const TileProfileDiff& diff,
                          double maxCyclesRegressFrac,
                          double minLocalityRatio, std::string* why = nullptr,
                          double maxInterBytesRegressFrac = -1.0);

// -- exporters --------------------------------------------------------------

/// Serialises a report (deterministic key order; numbers round-trip).
json::Value tileProfileToJson(const TileProfile& profile);
/// Inverse of tileProfileToJson; validates geometry and schema version.
TileProfile tileProfileFromJson(const json::Value& doc);

/// Single-file HTML report: metadata, category table, straggler table, and
/// inline heatmaps for the tile grid (busy cycles, critical path, SRAM) and
/// the tile×tile traffic matrix. Self-contained — no scripts, no external
/// assets.
std::string tileProfileToHtml(const TileProfile& profile);

/// Per-category cycle/imbalance/utilisation breakdown.
TextTable tileProfileSummaryTable(const TileProfile& profile);
/// Top-K straggler tiles with their dominant categories.
TextTable tileStragglerTable(const TileProfile& profile, std::size_t k = 8);
/// Side-by-side A/B comparison of two reports.
TextTable tileProfileDiffTable(const TileProfileDiff& diff);

}  // namespace graphene::support
