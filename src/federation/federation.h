// Parallel multi-library federation under conservative time-stepped
// synchronization (DESIGN.md section 18).
//
// N digital twins — each with its own Simulator, calendar queue, and forked
// RNG streams — advance in epochs of length equal to the minimum inter-DC
// latency (the lookahead). Within an epoch the twins share nothing, so they
// execute fully in parallel on the shared ThreadPool; at the barrier the
// driver exchanges cross-library messages (geo-routed read forwards,
// replication writes, cross-library repair transfers), each delivered no
// earlier than send_time + that minimum latency. Barrier processing walks
// libraries in id order and sorts deliveries by (deliver_time, src, seq), so
// the run is byte-identical for every --federation-threads value.
#ifndef SILICA_FEDERATION_FEDERATION_H_
#define SILICA_FEDERATION_FEDERATION_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/library_sim.h"
#include "federation/multi_site.h"
#include "federation/placement.h"
#include "workload/trace_gen.h"

namespace silica {

struct Telemetry;

struct FederationConfig {
  // Template twin config. seed / telemetry / federation hooks are overridden
  // per library (seeds fork from `seed`; hooks are owned by the driver).
  LibrarySimConfig library;

  int num_libraries = 4;
  int replication = 2;
  int tenants = 64;
  double demand_skew_sigma = 0.0;  // Fig 1(c) per-site demand spread

  TraceProfile profile;            // per-site workload (rate scaled by skew)
  double geo_read_fraction = 0.0;  // unsharded reads routed via federation

  // Pairwise latency = base + hop * ring_distance(i, j). The lookahead (and
  // the epoch-size floor) is the minimum pair latency, base + hop. Defaults
  // model the *effective* inter-site latency of archival traffic — platter
  // and sector payloads measured in GB, where transfer time dwarfs RTT — not
  // a ping time; against a 15-hour SLO the difference is invisible, and the
  // larger lookahead keeps epochs coarse (see DESIGN.md section 18).
  double base_latency_s = 5.0;
  double hop_latency_s = 1.0;

  int threads = 1;  // libraries simulated concurrently per epoch
  uint64_t seed = 1;

  // --- scenario knobs (all default-off) ---
  // Whole-library blackout: the library is unreachable (no messages in or
  // out, excluded from routing) during [start, start + duration); its local
  // simulation keeps running.
  int blackout_library = -1;
  double blackout_start_s = 0.0;
  double blackout_duration_s = 0.0;
  // Zone evacuation: geo reads arriving at or after `evacuate_at_s` whose
  // tenant was homed at `evacuate_library` originate from the re-homed site.
  int evacuate_library = -1;
  double evacuate_at_s = 0.0;
  // Sustained cross-site ingress: each library replicates freshly written
  // platters to the federation at this rate; the destination is rebalanced
  // to the site with the least ingested replicas (ties to the smallest id).
  double replication_writes_per_hour = 0.0;
  double replication_until_s = 12.0 * 3600.0;

  // Optional observability (not owned): federation-level summary counters are
  // published here at the end of the run. Per-twin telemetry stays off (twins
  // run concurrently; a shared registry would interleave their streams).
  Telemetry* telemetry = nullptr;
};

struct FederationResult {
  std::vector<LibrarySimResult> libraries;

  // Message conservation: sent == delivered + dropped + in_flight, always.
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;   // blackout-window losses
  uint64_t messages_in_flight = 0; // undelivered at termination (0 normally)
  uint64_t bytes_sent = 0;

  // Geo-routed reads: routed + unroutable == total issued by the workload.
  uint64_t geo_reads = 0;
  uint64_t geo_routed = 0;
  uint64_t geo_unroutable = 0;   // no live replica at routing time
  uint64_t geo_completed = 0;
  uint64_t geo_failed = 0;       // served-but-failed, or lost to a blackout
  PercentileTracker geo_completion_times;  // client arrival -> response

  // Cross-library repair traffic (Liquid-style site repair accounting).
  uint64_t repair_transfers = 0;
  uint64_t repair_bytes = 0;

  uint64_t replication_writes = 0;

  uint64_t epochs = 0;
  double lookahead_s = 0.0;
  uint64_t events_executed = 0;  // summed over libraries
  double makespan = 0.0;         // max over libraries
  double wall_seconds = 0.0;

  // Checkpoint field list (common/state_io.h); wall_seconds is deliberately
  // excluded: it is the one nondeterministic field.
  template <class Ar>
  void Visit(Ar& ar);
};

// Deterministic: a pure function of `config` — in particular, independent of
// config.threads. Throws std::invalid_argument on malformed configs.
FederationResult SimulateFederation(const FederationConfig& config);

// The exact per-library inputs SimulateFederation derives from a config:
// placement, local traces, geo reads, and per-library twin seeds. Exposed so
// tests can run one library standalone and compare byte-for-byte.
struct FederationWorkload {
  Placement placement;
  MultiSiteWorkload workload;
};
FederationWorkload BuildFederationWorkload(const FederationConfig& config);

// Serialization of the full result (hashing / byte-identity comparisons).
void SaveFederationResult(StateWriter& w, const FederationResult& result);

}  // namespace silica

#endif  // SILICA_FEDERATION_FEDERATION_H_
