// Durability sweep: media aging intensity x background scrub {off, on} through
// the library digital twin. Shows the robustness story end to end:
//
//   * without scrubbing, latent damage accrues silently — only customer reads
//     surface it, and deep damage waits unrepaired (the archival nightmare);
//   * with scrubbing, idle verify-slot capacity detects damage early, repairs
//     climb the four-tier ladder (LDPC retry -> within-track NC -> large group
//     -> 16+3 platter-set rebuild), and the repair ledger conserves:
//     detected == sum(repaired by tier) + unrecoverable.
//
// A second sweep runs the set-level rare-event MTTDL estimator (DESIGN.md §17)
// over the durability frontier: eager vs lazy repair at several bandwidth
// budgets, plus a wider code at the same budget, plus a brute-force Monte
// Carlo cross-check cell whose 95% CI must overlap the splitting estimate.
//
// Kept small (a few hundred platters, a short IOPS trace) so the full sweep
// runs in seconds; `--json` emits one machine-readable object for trajectory
// tracking (tools/check.sh smoke-runs it). `--sweep-threads=K` runs the grid
// cells in parallel with byte-identical output for every K.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/durability_model.h"

namespace silica {
namespace {

constexpr uint64_t kPlatters = 400;

struct Cell {
  double mtbe_s = 0.0;
  bool scrub = false;
  LibrarySimResult result;
};

Cell RunCell(const GeneratedTrace& trace, double mtbe_s, bool scrub) {
  auto config = BaseConfig(LibraryConfig::Policy::kPartitioned, trace, kPlatters);
  if (mtbe_s > 0.0) {
    config.faults.aging = MediaAgingConfig::Exponential(mtbe_s);
  }
  config.scrub.enabled = scrub;
  config.scrub.platter_interval_s = 1800.0;
  config.scrub.track_sample_fraction = 0.2;
  Cell cell;
  cell.mtbe_s = mtbe_s;
  cell.scrub = scrub;
  cell.result = SimulateLibrary(config, trace.requests);
  return cell;
}

std::string CellJson(const Cell& cell) {
  const auto& s = cell.result.scrub;
  const auto& ct = cell.result.completion_times;
  JsonObject tiers;
  for (int t = 0; t < kNumRepairTiers; ++t) {
    tiers.Field(RepairTierName(static_cast<RepairTier>(t)), s.ledger.repaired[t]);
  }
  return JsonObject()
      .Field("aging_mtbe_s", cell.mtbe_s)
      .Field("scrub", cell.scrub)
      .Field("aging_events", s.aging_events)
      .Field("latent_sectors", s.latent_sectors)
      .Field("scrub_passes", s.scrubs_completed)
      .Field("scrub_detections", s.scrub_detections)
      .Field("read_detections", s.read_detections)
      .Field("detected", s.ledger.detected)
      .FieldRaw("repaired", tiers.Str())
      .Field("unrecoverable", s.ledger.unrecoverable)
      .Field("bytes_lost", s.ledger.bytes_lost)
      .Field("conserves", s.ledger.Conserves())
      .Field("rebuilds_started", s.rebuilds_started)
      .Field("rebuilds_completed", s.rebuilds_completed)
      .Field("rebuild_retries", s.rebuild_retries)
      .Field("rebuild_reads", s.rebuild_reads)
      .Field("scrub_read_seconds", s.scrub_read_seconds)
      .Field("repair_read_seconds", s.repair_read_seconds)
      .Field("completion_p50_s", ct.Percentile(0.5))
      .Field("completion_p99_s", ct.Percentile(0.99))
      .Str();
}

// ---------------------------------------------------------------------------
// MTTDL frontier (set-level model, importance splitting).
// ---------------------------------------------------------------------------

// Accelerated fleet so every frontier cell resolves in well under a second:
// per-platter failure rate and scrub lag far above physical glass, but the
// *relative* ordering (eager vs lazy, budget starvation, code width) is the
// story, and it is bandwidth-regime-invariant.
DurabilityConfig FrontierBase() {
  DurabilityConfig config;
  config.num_sets = 64;
  config.n = 19;  // the paper's 16+3 platter set
  config.k = 16;
  config.platter_bytes = 100.0e9;
  config.fail_rate_per_platter_year = 0.15;
  config.scrub_interval_s = 15.0 * 24.0 * 3600.0;
  config.repair_bandwidth_bytes_per_s = 50.0e6;
  config.horizon_s = 5.0 * 365.25 * 24.0 * 3600.0;
  config.seed = 0xD0C5;
  return config;
}

// The Monte Carlo cross-check runs on a one-failure-tolerant fleet where
// losses are common enough for brute force to see them; the splitting and MC
// CIs on this cell must overlap (tools/compare_runs.py gates on it).
DurabilityConfig CrossCheckFleet() {
  DurabilityConfig config;
  config.num_sets = 16;
  config.n = 5;
  config.k = 4;
  config.fail_rate_per_platter_year = 0.3;
  config.scrub_interval_s = 10.0 * 24.0 * 3600.0;
  config.repair_bandwidth_bytes_per_s = 20.0e6;
  config.horizon_s = 1.0 * 365.25 * 24.0 * 3600.0;
  config.seed = 77;
  return config;
}

struct MttdlCell {
  const char* label;
  DurabilityConfig config;
  int roots = 200;
  int split_k = 4;
  MttdlEstimate estimate;
};

std::vector<MttdlCell> MttdlGrid() {
  std::vector<MttdlCell> grid;
  auto add = [&grid](const char* label, DurabilityConfig config, int roots,
                     int split_k) {
    MttdlCell cell;
    cell.label = label;
    cell.config = config;
    cell.roots = roots;
    cell.split_k = split_k;
    grid.push_back(cell);
  };
  auto eager = FrontierBase();
  add("eager_16p3", eager, 200, 4);
  auto lazy = FrontierBase();
  lazy.lazy = true;
  add("lazy_16p3_50MBps", lazy, 200, 4);
  lazy.repair_bandwidth_bytes_per_s = 10.0e6;
  add("lazy_16p3_10MBps", lazy, 200, 4);
  lazy.repair_bandwidth_bytes_per_s = 2.0e6;
  add("lazy_16p3_2MBps", lazy, 200, 4);
  // Same starved budget, three more redundant platters: width buys back what
  // the budget gave up (at k x platter_bytes repair amplification per rebuild).
  auto wide = lazy;
  wide.repair_bandwidth_bytes_per_s = 10.0e6;
  wide.n = 22;
  add("lazy_22p6_10MBps", wide, 200, 4);
  add("xcheck_split", CrossCheckFleet(), 400, 6);
  add("xcheck_mc", CrossCheckFleet(), 400, 1);
  return grid;
}

std::string MttdlCellJson(const MttdlCell& cell) {
  return JsonObject()
      .Field("label", cell.label)
      .FieldRaw("estimate", MttdlEstimateToJson(cell.config, cell.estimate,
                                                cell.split_k, 0))
      .Str();
}

int Run(bool json, int sweep_threads) {
  const auto trace = GenerateTrace(TraceProfile::Iops(42), kPlatters);
  // Aging means: off, then one latent damage event per platter roughly every
  // 8 h and every 1 h of the trace window — far beyond any physical glass decay
  // rate, compressed so a short run exercises every repair tier.
  const std::vector<double> mtbes = {0.0, 8.0 * 3600.0, 3600.0};

  // Build the cell grid first, fan the simulations out (--sweep-threads=K; the
  // shared trace is read-only), then print in grid order so the report is
  // byte-identical for every K.
  std::vector<std::pair<double, bool>> grid;
  for (double mtbe : mtbes) {
    for (bool scrub : {false, true}) {
      if (mtbe == 0.0 && !scrub) {
        continue;  // the all-off cell is every other bench
      }
      grid.emplace_back(mtbe, scrub);
    }
  }
  const auto results = RunSweep<Cell>(
      grid.size(), sweep_threads,
      [&](size_t i) { return RunCell(trace, grid[i].first, grid[i].second); });

  std::vector<std::string> cells;
  if (!json) {
    Header("Durability: media aging x background scrub (400 platters, IOPS)");
    std::printf("%-10s %6s %8s %8s %10s %9s %28s %7s %6s %10s\n", "aging mtbe",
                "scrub", "events", "latent", "detected", "passes",
                "repaired (ldpc/tnc/lg/set)", "unrec", "lost", "p99");
  }
  for (const Cell& cell : results) {
    if (json) {
      cells.push_back(CellJson(cell));
      continue;
    }
    const auto& s = cell.result.scrub;
    char repaired[64];
    std::snprintf(repaired, sizeof(repaired), "%llu/%llu/%llu/%llu",
                  static_cast<unsigned long long>(s.ledger.repaired[0]),
                  static_cast<unsigned long long>(s.ledger.repaired[1]),
                  static_cast<unsigned long long>(s.ledger.repaired[2]),
                  static_cast<unsigned long long>(s.ledger.repaired[3]));
    std::printf("%-10s %6s %8llu %8llu %10llu %9llu %28s %7llu %6llu %10s%s\n",
                cell.mtbe_s > 0.0
                    ? FormatDuration(cell.mtbe_s).c_str()
                    : "off",
                cell.scrub ? "on" : "off",
                static_cast<unsigned long long>(s.aging_events),
                static_cast<unsigned long long>(s.latent_sectors),
                static_cast<unsigned long long>(s.ledger.detected),
                static_cast<unsigned long long>(s.scrubs_completed), repaired,
                static_cast<unsigned long long>(s.ledger.unrecoverable),
                static_cast<unsigned long long>(s.ledger.bytes_lost),
                Tail(cell.result).c_str(),
                s.ledger.Conserves() ? "" : "  [LEDGER LEAK]");
  }
  // MTTDL frontier: the estimator is cheap enough that the whole grid runs
  // inline; RunSweep keeps the cells independent and the output order fixed.
  auto mttdl_grid = MttdlGrid();
  const auto mttdl_results = RunSweep<MttdlCell>(
      mttdl_grid.size(), sweep_threads, [&](size_t i) {
        MttdlCell cell = mttdl_grid[i];
        cell.estimate = EstimateMttdl(cell.config, cell.roots, cell.split_k);
        return cell;
      });

  if (json) {
    std::vector<std::string> mttdl_cells;
    for (const MttdlCell& cell : mttdl_results) {
      mttdl_cells.push_back(MttdlCellJson(cell));
    }
    std::printf("%s\n",
                JsonObject()
                    .Field("bench", "durability")
                    .FieldRaw("host", HostJson())
                    .Field("platters", kPlatters)
                    .FieldRaw("cells", JsonArray(cells))
                    .FieldRaw("mttdl", JsonArray(mttdl_cells))
                    .Str()
                    .c_str());
    return 0;
  }

  Header("MTTDL frontier (set-level model, importance splitting)");
  std::printf("%-18s %6s %5s %8s %10s %22s %12s %8s\n", "cell", "repair",
              "code", "bw MB/s", "p_loss", "p_loss 95% CI", "mttdl yrs",
              "losses");
  for (const MttdlCell& cell : mttdl_results) {
    const auto& e = cell.estimate;
    char code[16];
    std::snprintf(code, sizeof(code), "%d+%d", cell.config.k,
                  cell.config.n - cell.config.k);
    char ci[32];
    std::snprintf(ci, sizeof(ci), "[%.4f, %.4f]", e.ci_low, e.ci_high);
    std::printf("%-18s %6s %5s %8.1f %10.4f %22s %12.1f %8llu\n", cell.label,
                cell.config.lazy ? "lazy" : "eager", code,
                cell.config.repair_bandwidth_bytes_per_s / 1.0e6, e.p_loss, ci,
                e.mttdl_years,
                static_cast<unsigned long long>(e.loss_branches));
  }
  std::printf(
      "\nWithout scrub, damage is only surfaced by customer reads (deep tiers\n"
      "wait unrepaired); with scrub, idle verify capacity finds and repairs it\n"
      "early, and the ledger conserves: detected == repaired + unrecoverable.\n"
      "The frontier: starving the lazy repair budget costs durability; widening\n"
      "the code (16+3 -> 16+6) buys it back at k x platter_bytes repair\n"
      "amplification. The xcheck pair pins splitting against brute force.\n");
  return 0;
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  bool json = false;
  int sweep_threads = 1;
  silica::FlagSet flags("bench_durability",
                        "Media aging x background scrub through the twin, and "
                        "the MTTDL vs repair-bandwidth frontier.");
  flags.Bool("json", &json, "one JSON object on stdout")
      .Int("sweep-threads", &sweep_threads,
           "threads running the sweep cells; the report is identical for "
           "every value");
  return silica::RunBench(argc, argv, flags,
                          [&] { return silica::Run(json, sweep_threads); });
}
