// Synthetic read-trace generation for the digital twin experiments (Section 7.2).
//
// The paper simulates three 12-hour intervals extracted from a production archival
// service: Typical, IOPS (≈10x more reads per volume than Typical), and Volume (≈25x
// the volume, ≈5x the reads of Typical). Each trace is padded with warm-up and
// cool-down traffic; completion statistics are recorded only for requests arriving
// inside the measured window. Requests map to platters uniformly unless a Zipf skew
// is requested (Section 7.5).
#ifndef SILICA_WORKLOAD_TRACE_GEN_H_
#define SILICA_WORKLOAD_TRACE_GEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.h"
#include "workload/file_size_model.h"

namespace silica {

struct TraceProfile {
  std::string name = "typical";
  double window_s = 12.0 * 3600.0;   // measured interval length
  double warmup_s = 2.0 * 3600.0;    // padding before the window
  double cooldown_s = 2.0 * 3600.0;  // padding after the window
  double mean_rate_per_s = 0.15;     // request arrival rate inside the window
  double padding_rate_factor = 0.3;  // warm-up / cool-down rate relative to window

  double size_scale = 1.0;           // multiplies sampled file sizes
  double zipf_skew = 0.0;            // 0 = uniform platter placement
  // Burst structure: arrivals are a Poisson process modulated by a piecewise-
  // constant envelope resampled every `burst_period_s` from a log-normal with
  // sigma `burst_sigma` (mean 1), giving the heavy-tailed hourly rates of Fig 1(c).
  double burst_period_s = 900.0;
  double burst_sigma = 1.0;

  // Large files are sharded across multiple platters to parallelize their reads
  // (Section 6); a read of a sharded file becomes one sub-request per shard and
  // completes when the last shard does.
  uint64_t shard_bytes = 2ull * 1024 * 1024 * 1024;
  uint64_t max_file_bytes = 4ull * 1024 * 1024 * 1024 * 1024;  // clamp the extreme tail

  uint64_t seed = 1;

  // The paper's three evaluated intervals (relationships from Section 7.2), plus a
  // steady Poisson profile for the full-library experiment of Section 7.7.
  static TraceProfile Typical(uint64_t seed = 1);
  static TraceProfile Iops(uint64_t seed = 1);
  static TraceProfile Volume(uint64_t seed = 1);
  static TraceProfile SteadyPoisson(double rate_per_s, double file_bytes,
                                    uint64_t seed = 1);
  // The evaluated intervals by name, for command lines: "iops", "volume" and
  // "typical". Named throws std::invalid_argument on any other name.
  static std::vector<std::string> Names();
  static TraceProfile Named(std::string_view name, uint64_t seed);

  double total_duration_s() const { return warmup_s + window_s + cooldown_s; }
  double measure_start() const { return warmup_s; }
  double measure_end() const { return warmup_s + window_s; }
};

struct GeneratedTrace {
  ReadTrace requests;        // sorted by arrival
  double measure_start = 0;
  double measure_end = 0;
  uint64_t window_requests = 0;
  uint64_t window_bytes = 0;
};

// Generates a trace over `num_platters` information platters.
GeneratedTrace GenerateTrace(const TraceProfile& profile, uint64_t num_platters);

}  // namespace silica

#endif  // SILICA_WORKLOAD_TRACE_GEN_H_
