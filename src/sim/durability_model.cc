#include "sim/durability_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/state_io.h"

namespace silica {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSecondsPerYear = 365.25 * 24.0 * 3600.0;

}  // namespace

DurabilityModel::DurabilityModel(const DurabilityConfig& config)
    : config_(config) {
  if (config_.num_sets < 1 || config_.k < 1 || config_.n <= config_.k) {
    throw std::invalid_argument(
        "DurabilityModel: need num_sets >= 1 and n > k >= 1 (got num_sets=" +
        std::to_string(config_.num_sets) + ", n=" + std::to_string(config_.n) +
        ", k=" + std::to_string(config_.k) + ")");
  }
  const std::pair<const char*, double> positive[] = {
      {"fail_rate_per_platter_year", config_.fail_rate_per_platter_year},
      {"repair_bandwidth_bytes_per_s", config_.repair_bandwidth_bytes_per_s},
      {"scrub_interval_s", config_.scrub_interval_s},
      {"horizon_s", config_.horizon_s}};
  for (const auto& [name, value] : positive) {
    if (!(value > 0.0)) {
      throw std::invalid_argument(std::string("DurabilityModel: ") + name +
                                  " must be > 0 (got " + std::to_string(value) +
                                  ")");
    }
  }
}

double DurabilityModel::FailRatePerSecond() const {
  return config_.fail_rate_per_platter_year / kSecondsPerYear;
}

void DurabilityModel::ResampleFailure(DurabilityState& s) const {
  // Failures are memoryless, so the fleet-wide next-failure clock can be
  // redrawn whenever the exposed-platter count changes without bias.
  if (s.alive <= 0) {
    s.next_failure = kInf;
    return;
  }
  s.next_failure =
      s.now + s.rng.Exponential(static_cast<double>(s.alive) * FailRatePerSecond());
}

DurabilityState DurabilityModel::MakeInitialState(uint64_t root_index) const {
  DurabilityState s;
  s.rng = Rng(config_.seed).Fork(0xD04A'0000u + root_index);
  s.sets.assign(static_cast<size_t>(config_.num_sets), DurabilitySetState{});
  s.alive = static_cast<int64_t>(config_.num_sets) * config_.n;
  ResampleFailure(s);
  s.service_done = kInf;
  return s;
}

void DurabilityModel::StartNextService(DurabilityState& s) const {
  // Liquid drain order: the set with the least remaining redundancy first,
  // then oldest detection, then admission sequence. The single server *is*
  // the bandwidth budget — it never repairs faster than the configured rate.
  if (s.queue.empty()) {
    s.service_set = -1;
    s.service_done = kInf;
    return;
  }
  size_t best = 0;
  for (size_t i = 1; i < s.queue.size(); ++i) {
    const DurabilityLazyItem& a = s.queue[i];
    const DurabilityLazyItem& b = s.queue[best];
    const int ra = config_.redundancy() - s.sets[static_cast<size_t>(a.set)].failed;
    const int rb = config_.redundancy() - s.sets[static_cast<size_t>(b.set)].failed;
    if (ra != rb ? ra < rb
                 : (a.detected_at != b.detected_at ? a.detected_at < b.detected_at
                                                   : a.seq < b.seq)) {
      best = i;
    }
  }
  s.service_set = s.queue[best].set;
  s.queue.erase(s.queue.begin() + static_cast<long>(best));
  s.service_done =
      s.now + config_.repair_bytes() / config_.repair_bandwidth_bytes_per_s;
}

DurabilityModel::StepOutcome DurabilityModel::Step(DurabilityState& s) const {
  if (s.lost) {
    throw std::logic_error("DurabilityModel::Step on a terminal state");
  }

  // Next event: failure, earliest detection, earliest eager repair, lazy
  // service completion, or the horizon. Ties resolve in that fixed order (then
  // by set index / entry index), so replay is deterministic.
  enum Kind { kNone, kFailure, kDetect, kEagerDone, kServiceDone };
  Kind kind = kNone;
  double when = kInf;
  int event_set = -1;
  size_t event_entry = 0;

  if (s.next_failure < when) {
    when = s.next_failure;
    kind = kFailure;
  }
  for (size_t i = 0; i < s.sets.size(); ++i) {
    const DurabilitySetState& set = s.sets[i];
    for (size_t j = 0; j < set.detect_at.size(); ++j) {
      if (set.detect_at[j] < when) {
        when = set.detect_at[j];
        kind = kDetect;
        event_set = static_cast<int>(i);
        event_entry = j;
      }
    }
    for (size_t j = 0; j < set.repair_done.size(); ++j) {
      if (set.repair_done[j] < when) {
        when = set.repair_done[j];
        kind = kEagerDone;
        event_set = static_cast<int>(i);
        event_entry = j;
      }
    }
  }
  if (s.service_done < when) {
    when = s.service_done;
    kind = kServiceDone;
  }

  if (kind == kNone || when >= config_.horizon_s) {
    s.now = config_.horizon_s;
    return StepOutcome::kHorizon;
  }
  s.now = when;

  switch (kind) {
    case kFailure: {
      // Pick the victim uniformly among exposed platters, weighted by each
      // set's live count.
      int64_t r = s.rng.UniformInt(0, s.alive - 1);
      int victim = -1;
      for (size_t i = 0; i < s.sets.size(); ++i) {
        const int64_t live = config_.n - s.sets[i].failed;
        if (r < live) {
          victim = static_cast<int>(i);
          break;
        }
        r -= live;
      }
      DurabilitySetState& set = s.sets[static_cast<size_t>(victim)];
      ++set.failed;
      ++s.failures;
      --s.alive;
      set.detect_at.push_back(s.now +
                              s.rng.Uniform(0.0, config_.scrub_interval_s));
      ResampleFailure(s);
      if (set.failed > config_.redundancy()) {
        s.lost = true;
        s.lost_set = victim;
        s.loss_time = s.now;
        return StepOutcome::kLoss;
      }
      if (set.failed > s.max_failed) {
        s.max_failed = set.failed;
        return StepOutcome::kLevelUp;
      }
      return StepOutcome::kAdvanced;
    }
    case kDetect: {
      DurabilitySetState& set = s.sets[static_cast<size_t>(event_set)];
      set.detect_at.erase(set.detect_at.begin() + static_cast<long>(event_entry));
      if (config_.lazy) {
        ++set.queued;
        s.queue.push_back(
            DurabilityLazyItem{event_set, s.now, s.next_seq++});
        if (s.service_set < 0) {
          StartNextService(s);
        }
      } else {
        set.repair_done.push_back(
            s.now + config_.repair_bytes() / config_.repair_bandwidth_bytes_per_s);
      }
      return StepOutcome::kAdvanced;
    }
    case kEagerDone: {
      DurabilitySetState& set = s.sets[static_cast<size_t>(event_set)];
      set.repair_done.erase(set.repair_done.begin() +
                            static_cast<long>(event_entry));
      --set.failed;
      ++s.repairs;
      ++s.alive;
      ResampleFailure(s);
      return StepOutcome::kAdvanced;
    }
    case kServiceDone: {
      DurabilitySetState& set = s.sets[static_cast<size_t>(s.service_set)];
      --set.failed;
      --set.queued;
      ++s.repairs;
      ++s.alive;
      ResampleFailure(s);
      s.service_set = -1;
      s.service_done = kInf;
      StartNextService(s);
      return StepOutcome::kAdvanced;
    }
    case kNone:
      break;
  }
  throw std::logic_error("DurabilityModel::Step: unreachable");
}

DurabilityState DurabilityModel::Restore(StateReader& r) const {
  DurabilityState s;
  s.sets.resize(static_cast<size_t>(config_.num_sets));
  r(s);
  return s;
}

MttdlEstimate EstimateMttdl(const DurabilityConfig& config, int roots,
                            int split_k) {
  if (roots < 2) {
    throw std::invalid_argument("EstimateMttdl: need >= 2 roots for a CI");
  }
  if (split_k < 1) {
    throw std::invalid_argument("EstimateMttdl: split_k must be >= 1");
  }
  const DurabilityModel model(config);
  MttdlEstimate out;
  out.roots = static_cast<uint64_t>(roots);

  struct Branch {
    DurabilityState state;
    double weight = 1.0;
  };

  std::vector<double> root_weight(static_cast<size_t>(roots), 0.0);
  double loss_time_weighted = 0.0;

  for (int root = 0; root < roots; ++root) {
    std::vector<Branch> stack;
    stack.push_back(Branch{model.MakeInitialState(static_cast<uint64_t>(root)),
                           1.0});
    // Per-root counter so every forked continuation gets a unique, replayable
    // stream tag.
    uint64_t split_seq = 0;

    while (!stack.empty()) {
      Branch branch = std::move(stack.back());
      stack.pop_back();
      for (;;) {
        const DurabilityModel::StepOutcome outcome = model.Step(branch.state);
        ++out.events;
        if (outcome == DurabilityModel::StepOutcome::kAdvanced) {
          continue;
        }
        if (outcome == DurabilityModel::StepOutcome::kLevelUp) {
          if (split_k > 1) {
            // Fixed splitting: K branches, each 1/K of the parent's weight.
            // The expectation over branches equals the parent's contribution,
            // which is what keeps the estimator unbiased.
            branch.weight /= static_cast<double>(split_k);
            for (int j = 1; j < split_k; ++j) {
              Branch clone = branch;
              clone.state.rng = branch.state.rng.Fork(
                  0x5B11'7000u + split_seq * static_cast<uint64_t>(split_k) +
                  static_cast<uint64_t>(j));
              stack.push_back(std::move(clone));
            }
            ++split_seq;
          }
          continue;
        }
        ++out.trajectories;
        if (outcome == DurabilityModel::StepOutcome::kLoss) {
          root_weight[static_cast<size_t>(root)] += branch.weight;
          loss_time_weighted += branch.weight * branch.state.loss_time;
          ++out.loss_branches;
        }
        break;  // kLoss or kHorizon: branch done
      }
    }
  }

  double mean = 0.0;
  for (double w : root_weight) {
    mean += w;
  }
  mean /= static_cast<double>(roots);
  double var = 0.0;
  for (double w : root_weight) {
    var += (w - mean) * (w - mean);
  }
  var /= static_cast<double>(roots - 1);
  const double half = 1.96 * std::sqrt(var / static_cast<double>(roots));

  out.p_loss = mean;
  out.ci_low = std::max(0.0, mean - half);
  out.ci_high = std::min(1.0, mean + half);
  out.weighted_losses = mean * static_cast<double>(roots);

  const double horizon_years = config.horizon_s / (365.25 * 24.0 * 3600.0);
  const double inf = std::numeric_limits<double>::infinity();
  out.mttdl_years = out.p_loss > 0.0 ? horizon_years / out.p_loss : inf;
  out.mttdl_years_low = out.ci_high > 0.0 ? horizon_years / out.ci_high : inf;
  out.mttdl_years_high = out.ci_low > 0.0 ? horizon_years / out.ci_low : inf;
  // Losing a set forfeits its k data platters; normalize to an exabyte-year.
  const double set_user_bytes = static_cast<double>(config.k) * config.platter_bytes;
  const double fleet_user_bytes =
      static_cast<double>(config.num_sets) * set_user_bytes;
  out.bytes_lost_per_exabyte_year = out.p_loss / horizon_years * set_user_bytes *
                                    (1.0e18 / fleet_user_bytes);
  out.mean_loss_time_years =
      mean > 0.0 ? loss_time_weighted / (mean * static_cast<double>(roots)) /
                       (365.25 * 24.0 * 3600.0)
                 : 0.0;
  return out;
}

std::string MttdlEstimateToJson(const DurabilityConfig& config,
                                const MttdlEstimate& estimate, int split_k,
                                int indent) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string pad2(static_cast<size_t>(indent) + 2, ' ');
  std::ostringstream os;
  os.precision(12);
  auto num = [](double v) -> std::string {
    if (std::isinf(v)) {
      return "1e308";  // JSON has no infinity; saturate
    }
    std::ostringstream o;
    o.precision(12);
    o << v;
    return o.str();
  };
  os << pad << "{\n";
  os << pad2 << "\"mode\": \"" << (split_k > 1 ? "splitting" : "monte_carlo")
     << "\",\n";
  os << pad2 << "\"repair\": \"" << (config.lazy ? "lazy" : "eager") << "\",\n";
  os << pad2 << "\"sets\": " << config.num_sets << ", \"n\": " << config.n
     << ", \"k\": " << config.k << ",\n";
  os << pad2 << "\"fail_rate_per_platter_year\": "
     << num(config.fail_rate_per_platter_year) << ",\n";
  os << pad2 << "\"scrub_interval_s\": " << num(config.scrub_interval_s)
     << ",\n";
  os << pad2 << "\"repair_bandwidth_bytes_per_s\": "
     << num(config.repair_bandwidth_bytes_per_s) << ",\n";
  os << pad2 << "\"horizon_years\": "
     << num(config.horizon_s / (365.25 * 24.0 * 3600.0)) << ",\n";
  os << pad2 << "\"split_k\": " << split_k << ", \"roots\": " << estimate.roots
     << ",\n";
  os << pad2 << "\"p_loss\": " << num(estimate.p_loss) << ",\n";
  os << pad2 << "\"p_loss_ci95\": [" << num(estimate.ci_low) << ", "
     << num(estimate.ci_high) << "],\n";
  os << pad2 << "\"mttdl_years\": " << num(estimate.mttdl_years) << ",\n";
  os << pad2 << "\"mttdl_years_ci95\": [" << num(estimate.mttdl_years_low)
     << ", " << num(estimate.mttdl_years_high) << "],\n";
  os << pad2 << "\"bytes_lost_per_exabyte_year\": "
     << num(estimate.bytes_lost_per_exabyte_year) << ",\n";
  os << pad2 << "\"mean_loss_time_years\": "
     << num(estimate.mean_loss_time_years) << ",\n";
  os << pad2 << "\"loss_branches\": " << estimate.loss_branches
     << ", \"trajectories\": " << estimate.trajectories
     << ", \"events\": " << estimate.events << "\n";
  os << pad << "}";
  return os.str();
}

}  // namespace silica
