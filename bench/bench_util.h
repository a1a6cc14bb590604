// Shared helpers for the experiment-reproduction benches: standard configurations,
// trace caching, and table printing. Each bench binary regenerates one table or
// figure of the paper (see DESIGN.md for the index).
#ifndef SILICA_BENCH_BENCH_UTIL_H_
#define SILICA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/units.h"
#include "core/library_sim.h"
#include "core/sweep.h"
#include "ecc/simd/gf256_kernels.h"
#include "workload/trace_gen.h"

namespace silica {

inline constexpr double kSloSeconds = 15.0 * 3600.0;  // 15-hour SLO to last byte
inline constexpr uint64_t kDefaultPlatters = 3000;    // early-lifecycle library

inline LibrarySimConfig BaseConfig(LibraryConfig::Policy policy,
                                   const GeneratedTrace& trace,
                                   uint64_t platters = kDefaultPlatters) {
  LibrarySimConfig config;
  config.library.policy = policy;
  config.library.num_shuttles = 20;
  config.library.drive_throughput_mbps = 60.0;
  config.num_info_platters = platters;
  config.measure_start = trace.measure_start;
  config.measure_end = trace.measure_end;
  config.seed = 17;
  return config;
}

inline const char* PolicyName(LibraryConfig::Policy policy) {
  switch (policy) {
    case LibraryConfig::Policy::kPartitioned:
      return "Silica";
    case LibraryConfig::Policy::kShortestPaths:
      return "SP";
    case LibraryConfig::Policy::kNoShuttles:
      return "NS";
  }
  return "?";
}

inline std::string Tail(const LibrarySimResult& result) {
  return FormatDuration(result.completion_times.Percentile(0.999));
}

inline const char* SloVerdict(const LibrarySimResult& result) {
  return result.completion_times.Percentile(0.999) <= kSloSeconds ? "meets SLO"
                                                                  : "MISSES SLO";
}

// Runs a bench: parses `flags` (a usage error prints "error: ..." and exits 2;
// --help prints the flag table and exits 0), then returns body(). A config
// validator's std::invalid_argument also exits 2. Exit 1 is a bench gate.
template <typename Body>
int RunBench(int argc, char** argv, FlagSet& flags, Body body) {
  return RunCli([&] { return flags.Parse(argc, argv) ? body() : 0; });
}

// A bench without flags of its own: every argument but --help is an error.
template <typename Body>
int RunBench(int argc, char** argv, const char* program, const char* about,
             Body body) {
  FlagSet flags(program, about);
  return RunBench(argc, argv, flags, body);
}

inline void Header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// Minimal JSON object builder for machine-readable bench output. Benches emit one
// object per run on stdout under --json; CI redirects that into BENCH_<name>.json
// so result trajectories can be tracked across commits (see tools/compare_runs.py
// for the silica_sim equivalent). Keys are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& Field(const char* key, const std::string& value) {
    Append(key, "\"" + value + "\"");
    return *this;
  }
  JsonObject& Field(const char* key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonObject& Field(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    Append(key, buf);
    return *this;
  }
  JsonObject& Field(const char* key, uint64_t value) {
    Append(key, std::to_string(value));
    return *this;
  }
  JsonObject& Field(const char* key, int value) {
    Append(key, std::to_string(value));
    return *this;
  }
  JsonObject& Field(const char* key, bool value) {
    Append(key, value ? "true" : "false");
    return *this;
  }
  // Nests a pre-rendered JSON value (object or array) verbatim.
  JsonObject& FieldRaw(const char* key, const std::string& raw) {
    Append(key, raw);
    return *this;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  void Append(const char* key, const std::string& rendered) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + std::string(key) + "\": " + rendered;
  }
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& rendered_items) {
  std::string out = "[";
  for (size_t i = 0; i < rendered_items.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += rendered_items[i];
  }
  return out + "]";
}

// The host a --json report was measured on: logical CPUs, the active SIMD
// kernel tier, and the build type and compiler of the bench binary.
inline std::string HostJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return JsonObject()
      .Field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .Field("simd", ActiveKernels().name)
      .Field("build_type", SILICA_BUILD_TYPE)
      .Field("compiler", compiler)
      .Str();
}

}  // namespace silica

#endif  // SILICA_BENCH_BENCH_UTIL_H_
