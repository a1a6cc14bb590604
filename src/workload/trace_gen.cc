#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/units.h"

namespace silica {

TraceProfile TraceProfile::Typical(uint64_t seed) {
  TraceProfile p;
  p.name = "typical";
  p.mean_rate_per_s = 0.2;
  p.burst_sigma = 0.8;
  p.size_scale = 1.0;
  p.seed = seed;
  return p;
}

TraceProfile TraceProfile::Iops(uint64_t seed) {
  // ~10x more reads per volume read than Typical: 10x the rate, ~1/10th the sizes.
  TraceProfile p;
  p.name = "iops";
  p.mean_rate_per_s = 2.5;
  p.size_scale = 0.1;
  p.burst_sigma = 1.2;  // the IOPS interval is the burstiest
  p.seed = seed;
  return p;
}

TraceProfile TraceProfile::Volume(uint64_t seed) {
  // ~25x the volume of Typical with only ~5x the reads: 5x rate, 5x sizes.
  TraceProfile p;
  p.name = "volume";
  p.mean_rate_per_s = 1.2;
  p.burst_sigma = 0.6;
  p.size_scale = 5.0;
  p.seed = seed;
  return p;
}

std::vector<std::string> TraceProfile::Names() { return {"iops", "volume", "typical"}; }

TraceProfile TraceProfile::Named(std::string_view name, uint64_t seed) {
  if (name == "iops") {
    return Iops(seed);
  }
  if (name == "volume") {
    return Volume(seed);
  }
  if (name == "typical") {
    return Typical(seed);
  }
  throw std::invalid_argument("unknown trace profile \"" + std::string(name) + "\"");
}

TraceProfile TraceProfile::SteadyPoisson(double rate_per_s, double file_bytes,
                                         uint64_t seed) {
  TraceProfile p;
  p.name = "steady";
  p.window_s = 6.0 * 3600.0;  // Section 7.7 uses a 6-hour window
  p.mean_rate_per_s = rate_per_s;
  p.burst_sigma = 0.0;  // pure Poisson
  // Fixed file size: encode via size_scale against a degenerate model handled in
  // GenerateTrace (steady profiles sample a constant size).
  p.size_scale = file_bytes;
  p.seed = seed;
  return p;
}

GeneratedTrace GenerateTrace(const TraceProfile& profile, uint64_t num_platters) {
  Rng rng(profile.seed);
  Rng size_rng = rng.Fork(1);
  Rng place_rng = rng.Fork(2);
  Rng burst_rng = rng.Fork(3);

  const FileSizeModel size_model;
  const bool steady = profile.name == "steady";

  std::unique_ptr<ZipfTable> zipf;
  if (profile.zipf_skew > 0.0) {
    zipf = std::make_unique<ZipfTable>(num_platters, profile.zipf_skew);
  }

  GeneratedTrace out;
  out.measure_start = profile.measure_start();
  out.measure_end = profile.measure_end();

  const double end = profile.total_duration_s();
  double t = 0.0;
  double envelope = 1.0;
  double next_envelope_refresh = 0.0;
  uint64_t id = 1;

  while (t < end) {
    if (t >= next_envelope_refresh) {
      envelope = profile.burst_sigma > 0.0
                     ? burst_rng.LogNormal(-0.5 * profile.burst_sigma *
                                               profile.burst_sigma,
                                           profile.burst_sigma)
                     : 1.0;
      next_envelope_refresh = t + profile.burst_period_s;
    }
    const bool in_window = t >= out.measure_start && t < out.measure_end;
    const double base_rate = in_window
                                 ? profile.mean_rate_per_s
                                 : profile.mean_rate_per_s * profile.padding_rate_factor;
    const double rate = std::max(1e-9, base_rate * envelope);
    t += rng.Exponential(rate);
    if (t >= end) {
      break;
    }

    uint64_t bytes = steady ? static_cast<uint64_t>(profile.size_scale)
                            : size_model.Sample(size_rng, profile.size_scale);
    bytes = std::min(bytes, profile.max_file_bytes);

    auto sample_platter = [&] {
      return zipf ? zipf->Sample(place_rng)
                  : static_cast<uint64_t>(place_rng.UniformInt(
                        0, static_cast<int64_t>(num_platters) - 1));
    };

    const uint64_t file_id = id++;
    if (bytes <= profile.shard_bytes) {
      ReadRequest request;
      request.id = file_id;
      request.arrival = t;
      request.file_id = file_id;
      request.bytes = bytes;
      request.platter = sample_platter();
      out.requests.push_back(request);
    } else {
      // Shard across platters; the read completes when the last shard completes.
      const uint64_t shards = (bytes + profile.shard_bytes - 1) / profile.shard_bytes;
      const uint64_t per_shard = bytes / shards;
      for (uint64_t s = 0; s < shards; ++s) {
        ReadRequest request;
        request.id = id++;
        request.arrival = t;
        request.file_id = file_id;
        request.bytes = s + 1 < shards ? per_shard
                                       : bytes - per_shard * (shards - 1);
        request.platter = sample_platter();
        request.parent = file_id;
        out.requests.push_back(request);
      }
    }

    if (t >= out.measure_start && t < out.measure_end) {
      ++out.window_requests;
      out.window_bytes += bytes;
    }
  }
  return out;
}

}  // namespace silica
