// Federation scaling bench: N glass libraries simulated concurrently under
// conservative epoch synchronization (DESIGN.md section 18). Sweeps the
// library count 1 -> 16, running every federation twice — --federation-threads
// workers and a serial reference — and hard-gates on:
//
//   * byte-identity: SaveFederationResult bytes hash identically for every
//     thread count (the determinism contract of the epoch scheme);
//   * conservation: messages sent == delivered + dropped + in_flight, and
//     every library resolves all of its requests;
//   * speedup: at 8 libraries the threaded run achieves >= 0.7x the linear
//     speedup the machine can express, min(threads, libraries, hw cores) —
//     on a 1-core CI box that degenerates to "threading overhead stays under
//     ~1.4x", on an 8-core box it is the full >= 5.6x parallel-scaling gate.
//
// `--json` emits one object for trajectory tracking; CI keeps
// BENCH_federation.json and tools/compare_runs.py --bench=federation diffs
// two captures.
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/state_io.h"
#include "federation/federation.h"

namespace silica {
namespace {

struct CellResult {
  int libraries = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  uint64_t events_executed = 0;
  double events_per_second = 0.0;
  uint64_t epochs = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_in_flight = 0;
  uint64_t geo_reads = 0;
  uint64_t geo_routed = 0;
  uint64_t geo_completed = 0;
  uint64_t geo_failed = 0;
  uint64_t requests_total = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_failed = 0;
  std::string hash;
  bool conserves = false;
};

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

std::string HashResult(const FederationResult& result) {
  StateWriter w;
  SaveFederationResult(w, result);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a(w.bytes())));
  return buf;
}

FederationConfig MakeConfig(int libraries, int threads, double rate_per_s,
                            double window_hours) {
  FederationConfig fc;
  fc.library.library.policy = LibraryConfig::Policy::kPartitioned;
  fc.library.library.num_shuttles = 8;
  fc.library.num_info_platters = 600;
  fc.library.library.storage_racks = 7;
  fc.library.seed = 17;
  fc.num_libraries = libraries;
  fc.replication = libraries >= 2 ? 2 : 1;
  fc.tenants = 64;
  fc.demand_skew_sigma = 0.0;  // balanced sites: the scaling measurement
  fc.profile = TraceProfile::SteadyPoisson(rate_per_s, 256.0 * 1024 * 1024, 1);
  fc.profile.window_s = window_hours * 3600.0;
  fc.profile.warmup_s = 0.5 * 3600.0;
  fc.profile.cooldown_s = 0.5 * 3600.0;
  fc.library.measure_start = fc.profile.warmup_s;
  fc.library.measure_end = fc.profile.warmup_s + fc.profile.window_s;
  fc.geo_read_fraction = 0.1;  // cross-library forwards exercised throughout
  // Effective latency of platter-scale bulk transfers (GBs on the wire), not
  // a ping time: coarse epochs keep the barrier cost amortized, which is the
  // regime the federation is built for (DESIGN.md section 18).
  fc.base_latency_s = 30.0;
  fc.hop_latency_s = 5.0;
  fc.threads = threads;
  fc.seed = 42;
  return fc;
}

CellResult RunCell(const FederationConfig& config, int reps) {
  FederationResult result;
  double wall = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    FederationResult r = SimulateFederation(config);
    if (rep == 0 || r.wall_seconds < wall) {
      wall = r.wall_seconds;
      result = std::move(r);
    }
  }
  CellResult cell;
  cell.libraries = config.num_libraries;
  cell.threads = config.threads;
  cell.wall_seconds = wall;
  cell.events_executed = result.events_executed;
  cell.events_per_second =
      wall > 0.0 ? static_cast<double>(result.events_executed) / wall : 0.0;
  cell.epochs = result.epochs;
  cell.messages_sent = result.messages_sent;
  cell.messages_delivered = result.messages_delivered;
  cell.messages_dropped = result.messages_dropped;
  cell.messages_in_flight = result.messages_in_flight;
  cell.geo_reads = result.geo_reads;
  cell.geo_routed = result.geo_routed;
  cell.geo_completed = result.geo_completed;
  cell.geo_failed = result.geo_failed;
  for (const LibrarySimResult& lib : result.libraries) {
    cell.requests_total += lib.requests_total;
    cell.requests_completed += lib.requests_completed;
    cell.requests_failed += lib.requests_failed;
  }
  cell.hash = HashResult(result);
  cell.conserves =
      result.messages_sent == result.messages_delivered +
                                  result.messages_dropped +
                                  result.messages_in_flight &&
      result.geo_routed + result.geo_unroutable == result.geo_reads &&
      cell.requests_completed + cell.requests_failed == cell.requests_total;
  return cell;
}

int Run(bool json, bool gate_speedup, int threads, int reps, double rate,
        double window_hours, const std::vector<int>& sizes) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<CellResult> serial_cells;
  std::vector<CellResult> threaded_cells;
  for (int libraries : sizes) {
    serial_cells.push_back(RunCell(MakeConfig(libraries, 1, rate, window_hours),
                                   reps));
    threaded_cells.push_back(
        RunCell(MakeConfig(libraries, threads, rate, window_hours), reps));
    const CellResult& a = serial_cells.back();
    const CellResult& b = threaded_cells.back();
    if (a.hash != b.hash) {
      std::fprintf(stderr,
                   "bench_federation: byte-identity violated at %d libraries: "
                   "threads=1 hash %s != threads=%d hash %s\n",
                   libraries, a.hash.c_str(), threads, b.hash.c_str());
      return 1;
    }
    for (const CellResult* cell : {&a, &b}) {
      if (!cell->conserves) {
        std::fprintf(stderr,
                     "bench_federation: conservation violated at %d libraries "
                     "(threads=%d)\n",
                     libraries, cell->threads);
        return 1;
      }
    }
  }

  // The scaling gate, at 8 libraries (or the largest swept size below 8).
  double speedup = 0.0, expected = 0.0;
  int gate_size = 0;
  for (size_t i = 0; i < serial_cells.size(); ++i) {
    const int l = serial_cells[i].libraries;
    if (l <= 8 && l > gate_size) {
      gate_size = l;
      speedup = threaded_cells[i].wall_seconds > 0.0
                    ? serial_cells[i].wall_seconds / threaded_cells[i].wall_seconds
                    : 0.0;
      expected = static_cast<double>(
          std::min({static_cast<unsigned>(threads), static_cast<unsigned>(l), hw}));
    }
  }
  const bool speedup_ok = speedup >= 0.7 * expected;
  if (gate_speedup && !speedup_ok) {
    std::fprintf(stderr,
                 "bench_federation: speedup gate failed at %d libraries / %d "
                 "threads: %.2fx < 0.7 * %.0fx linear (hw concurrency %u)\n",
                 gate_size, threads, speedup, expected, hw);
    return 1;
  }

  if (json) {
    std::vector<std::string> items;
    for (size_t i = 0; i < serial_cells.size(); ++i) {
      for (const CellResult* cell : {&serial_cells[i], &threaded_cells[i]}) {
        items.push_back(JsonObject()
                            .Field("libraries", cell->libraries)
                            .Field("threads", cell->threads)
                            .Field("wall_seconds", cell->wall_seconds)
                            .Field("events_executed", cell->events_executed)
                            .Field("events_per_second", cell->events_per_second)
                            .Field("epochs", cell->epochs)
                            .Field("messages_sent", cell->messages_sent)
                            .Field("messages_delivered", cell->messages_delivered)
                            .Field("messages_dropped", cell->messages_dropped)
                            .Field("messages_in_flight", cell->messages_in_flight)
                            .Field("geo_reads", cell->geo_reads)
                            .Field("geo_routed", cell->geo_routed)
                            .Field("geo_completed", cell->geo_completed)
                            .Field("geo_failed", cell->geo_failed)
                            .Field("requests_total", cell->requests_total)
                            .Field("requests_completed", cell->requests_completed)
                            .Field("requests_failed", cell->requests_failed)
                            .Field("hash", cell->hash)
                            .Field("conserves", cell->conserves)
                            .Str());
      }
    }
    std::printf("%s\n",
                JsonObject()
                    .Field("bench", "federation")
                    .FieldRaw("host", HostJson())
                    .Field("federation_threads", threads)
                    .Field("rate_per_s", rate)
                    .Field("window_hours", window_hours)
                    .FieldRaw("cells", JsonArray(items))
                    .Field("gate_libraries", gate_size)
                    .Field("speedup_at_gate", speedup)
                    .Field("expected_linear", expected)
                    .Field("speedup_ok", speedup_ok)
                    .Str()
                    .c_str());
    return 0;
  }

  Header("Federation scaling: N libraries under conservative epoch sync");
  std::printf("%5s %8s %9s %12s %12s %8s %9s %9s %9s\n", "libs", "threads",
              "wall_s", "events", "events/s", "epochs", "msgs", "geo_done",
              "hash");
  for (size_t i = 0; i < serial_cells.size(); ++i) {
    for (const CellResult* cell : {&serial_cells[i], &threaded_cells[i]}) {
      std::printf("%5d %8d %9.3f %12llu %12.0f %8llu %9llu %9llu  %s\n",
                  cell->libraries, cell->threads, cell->wall_seconds,
                  static_cast<unsigned long long>(cell->events_executed),
                  cell->events_per_second,
                  static_cast<unsigned long long>(cell->epochs),
                  static_cast<unsigned long long>(cell->messages_sent),
                  static_cast<unsigned long long>(cell->geo_completed),
                  cell->hash.c_str());
    }
  }
  std::printf("\nspeedup at %d libraries / %d threads: %.2fx "
              "(gate: >= 0.7 * %.0fx linear; hw concurrency %u)\n",
              gate_size, threads, speedup, expected, hw);
  return 0;
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  bool json = false;
  bool skip_speedup_gate = false;
  int threads = 8;
  int reps = 1;
  double rate = 1.0;
  double window_hours = 4.0;
  std::vector<int> sizes = {1, 2, 4, 8, 16};
  silica::FlagSet flags("bench_federation",
                        "Federation scaling: N libraries under conservative "
                        "epoch sync, 1 thread vs --federation-threads.");
  flags.Bool("json", &json, "one JSON object on stdout")
      .Bool("skip-speedup-gate", &skip_speedup_gate,
            "report the speedup without failing on it")
      .Int("federation-threads", &threads, "threads of the parallel cells")
      .Int("reps", &reps, "repetitions per cell; the fastest is reported")
      .Double("rate", &rate, "reads per second per library")
      .Double("window-hours", &window_hours, "measured window, hours")
      .IntList("libraries", &sizes, "federation sizes swept");
  return silica::RunBench(argc, argv, flags, [&] {
    if (reps < 1) {
      throw silica::FlagError("--reps must be >= 1");
    }
    return silica::Run(json, !skip_speedup_gate, threads, reps, rate,
                       window_hours, sizes);
  });
}
