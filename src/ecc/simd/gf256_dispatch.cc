// Tier selection for the SIMD kernel layer: CPUID-driven auto-detection plus the
// --simd override. The active vtable lives in one atomic pointer; selection is
// idempotent, so the benign first-use race just detects the same tier twice.
#include "ecc/simd/gf256_kernels.h"

#include <atomic>
#include <stdexcept>
#include <string>

namespace silica {
namespace {

std::atomic<const Gf256Kernels*> g_active{nullptr};

constexpr SimdMode kSimdModes[] = {SimdMode::kAuto, SimdMode::kScalar,
                                   SimdMode::kAvx2, SimdMode::kNeon};

const Gf256Kernels* DetectBest() {
  if (const Gf256Kernels* k = Avx2Kernels()) {
    return k;
  }
  if (const Gf256Kernels* k = NeonKernels()) {
    return k;
  }
  return &ScalarKernels();
}

const Gf256Kernels* ForMode(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return DetectBest();
    case SimdMode::kScalar:
      return &ScalarKernels();
    case SimdMode::kAvx2:
      return Avx2Kernels();
    case SimdMode::kNeon:
      return NeonKernels();
  }
  return nullptr;
}

}  // namespace

const Gf256Kernels& ActiveKernels() {
  const Gf256Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = DetectBest();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool SetSimdMode(SimdMode mode) {
  const Gf256Kernels* k = ForMode(mode);
  if (k == nullptr) {
    return false;
  }
  g_active.store(k, std::memory_order_release);
  return true;
}

SimdMode ActiveSimdMode() { return ActiveKernels().tier; }

std::optional<SimdMode> ParseSimdMode(std::string_view name) {
  for (const SimdMode mode : kSimdModes) {
    if (name == SimdModeName(mode)) {
      return mode;
    }
  }
  return std::nullopt;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kNeon:
      return "neon";
  }
  return "?";
}

std::vector<std::string> SimdModeNames() {
  std::vector<std::string> names;
  for (const SimdMode mode : kSimdModes) {
    names.emplace_back(SimdModeName(mode));
  }
  return names;
}

void SetSimdModeByName(std::string_view name) {
  const std::optional<SimdMode> mode = ParseSimdMode(name);
  if (!mode.has_value() || !SetSimdMode(*mode)) {
    std::string available;
    for (const SimdMode m : AvailableSimdModes()) {
      available += std::string(" ") + SimdModeName(m);
    }
    throw std::invalid_argument("simd tier \"" + std::string(name) +
                                "\" is not available here (available: auto" +
                                available + ")");
  }
}

std::vector<SimdMode> AvailableSimdModes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (Avx2Kernels() != nullptr) {
    modes.push_back(SimdMode::kAvx2);
  }
  if (NeonKernels() != nullptr) {
    modes.push_back(SimdMode::kNeon);
  }
  return modes;
}

}  // namespace silica
