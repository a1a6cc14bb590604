#include "faults/fault_injector.h"

#include <stdexcept>
#include <string>

#include "common/state_io.h"
#include "telemetry/telemetry.h"

namespace silica {

FaultProcess FaultProcess::Exponential(double mtbf_s, double mttr_s) {
  FaultProcess process;
  if (mtbf_s > 0.0) {
    process.uptime = std::make_shared<ExponentialDistribution>(mtbf_s);
    if (mttr_s > 0.0) {
      process.repair = std::make_shared<ExponentialDistribution>(mttr_s);
    }
  }
  return process;
}

FaultInjector::FaultInjector(Simulator& sim, FaultHost& host,
                             const FaultConfig& config, const Rng& rng,
                             int num_shuttles, int num_drives, int num_racks,
                             int num_platters)
    : sim_(sim), host_(host), config_(config) {
  // One forked stream per component, tagged by (class, id), so a schedule
  // depends only on the seed — never on event interleaving or component counts
  // of the other classes.
  const struct {
    Class cls;
    int count;
  } classes[] = {{kShuttle, num_shuttles},
                 {kDrive, num_drives},
                 {kRack, num_racks},
                 {kMedia, num_platters}};
  for (const auto& [cls, count] : classes) {
    if (!ClassEnabled(cls)) {
      continue;
    }
    for (int id = 0; id < count; ++id) {
      Component component;
      component.cls = cls;
      component.id = id;
      component.rng = rng.Fork(0xFA17'0000u + (static_cast<uint64_t>(cls) << 32) +
                               static_cast<uint64_t>(id));
      components_.push_back(std::move(component));
    }
  }
}

const FaultProcess& FaultInjector::ProcessOf(Class cls) const {
  switch (cls) {
    case kShuttle:
      return config_.shuttle;
    case kDrive:
      return config_.drive;
    case kRack:
    default:
      return config_.rack;
  }
}

bool FaultInjector::ClassEnabled(Class cls) const {
  return cls == kMedia ? config_.aging.enabled() : ProcessOf(cls).enabled();
}

// Time to the component's next failure event: the class's uptime law for the
// mechanical classes, the damage-event gap for media aging.
const Distribution* FaultInjector::UptimeOf(Class cls) const {
  return cls == kMedia ? config_.aging.event_gap.get()
                       : ProcessOf(cls).uptime.get();
}

void FaultInjector::Start() {
  for (auto& component : components_) {
    ScheduleFailure(component);
  }
}

void FaultInjector::ScheduleFailure(Component& component) {
  if (stopped_) {
    return;
  }
  const double uptime = UptimeOf(component.cls)->Sample(component.rng);
  const double when = sim_.Now() + uptime;
  if (when > config_.inject_until_s) {
    return;  // the injection window closed; this process retires
  }
  component.pending =
      sim_.Schedule(uptime, [this, &component] { OnFailure(component); });
  component.pending_at = when;
}

void FaultInjector::OnFailure(Component& component) {
  component.pending = Simulator::kInvalidEvent;
  ++stats_[component.cls].failures;
  if (failure_counters_[component.cls] != nullptr) {
    failure_counters_[component.cls]->Increment();
  }

  if (component.cls == kMedia) {
    // Media damage is latent, not an outage: the platter stays in service and
    // the process renews immediately. Repair is the scrub orchestrator's job.
    host_.OnPlatterAged(component.id);
    ScheduleFailure(component);
    return;
  }

  component.down = true;
  NotifyDown(component);

  const FaultProcess& process = ProcessOf(component.cls);
  if (process.repair != nullptr) {
    const double mttr = process.repair->Sample(component.rng);
    component.repair_event =
        sim_.Schedule(mttr, [this, &component] { OnRepair(component); });
    component.repair_at = sim_.Now() + mttr;
  }
  // No repair law: the component is lost for good (fail-stop).
}

void FaultInjector::OnRepair(Component& component) {
  component.repair_event = Simulator::kInvalidEvent;
  component.down = false;
  ++stats_[component.cls].repairs;
  if (repair_counters_[component.cls] != nullptr) {
    repair_counters_[component.cls]->Increment();
  }
  NotifyRepaired(component);
  ScheduleFailure(component);
}

void FaultInjector::NotifyDown(const Component& component) {
  switch (component.cls) {
    case kShuttle:
      host_.OnShuttleDown(component.id);
      break;
    case kDrive:
      host_.OnDriveDown(component.id);
      break;
    case kRack:
      host_.OnRackDown(component.id);
      break;
  }
}

void FaultInjector::NotifyRepaired(const Component& component) {
  switch (component.cls) {
    case kShuttle:
      host_.OnShuttleRepaired(component.id);
      break;
    case kDrive:
      host_.OnDriveRepaired(component.id);
      break;
    case kRack:
      host_.OnRackRepaired(component.id);
      break;
  }
}

void FaultInjector::StopInjecting() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  for (auto& component : components_) {
    if (component.pending != Simulator::kInvalidEvent) {
      sim_.Cancel(component.pending);
      component.pending = Simulator::kInvalidEvent;
    }
  }
}

template <class Ar>
void FaultInjector::Visit(Ar& ar) {
  ar.Fixed(components_, "FaultInjector checkpoint: component count mismatch");
  for (ClassStats& stats : stats_) {
    ar(stats.failures, stats.repairs);
  }
  ar(stopped_);
}

template void FaultInjector::Visit(StateWriter&);
template void FaultInjector::Visit(StateReader&);

void FaultInjector::CollectPending(std::vector<PendingFault>& out) const {
  for (size_t i = 0; i < components_.size(); ++i) {
    const Component& component = components_[i];
    if (component.pending != Simulator::kInvalidEvent) {
      out.push_back(PendingFault{component.pending, static_cast<int>(i), false,
                                 component.pending_at});
    }
    if (component.repair_event != Simulator::kInvalidEvent) {
      out.push_back(PendingFault{component.repair_event, static_cast<int>(i),
                                 true, component.repair_at});
    }
  }
}

FaultInjector::Component& FaultInjector::RearmTarget(int component_index) {
  if (component_index < 0 ||
      static_cast<size_t>(component_index) >= components_.size()) {
    throw std::runtime_error("FaultInjector: re-armed component " +
                             std::to_string(component_index) +
                             " out of range");
  }
  return components_[static_cast<size_t>(component_index)];
}

void FaultInjector::RearmFailureAt(int component_index, double at) {
  Component& component = RearmTarget(component_index);
  component.pending =
      sim_.ScheduleAt(at, [this, &component] { OnFailure(component); });
  component.pending_at = at;
}

void FaultInjector::RearmRepairAt(int component_index, double at) {
  Component& component = RearmTarget(component_index);
  component.repair_event =
      sim_.ScheduleAt(at, [this, &component] { OnRepair(component); });
  component.repair_at = at;
}

void FaultInjector::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    for (int c = 0; c < kNumClasses; ++c) {
      failure_counters_[c] = repair_counters_[c] = nullptr;
    }
    return;
  }
  const char* names[kNumClasses] = {"shuttle", "drive", "rack", "media"};
  for (int c = 0; c < kNumClasses; ++c) {
    if (c == kMedia && !config_.aging.enabled()) {
      continue;  // don't mint media series for runs without aging
    }
    const MetricLabels labels = {{"component", names[c]}};
    failure_counters_[c] =
        &telemetry->metrics.GetCounter("fault_failures_total", labels);
    repair_counters_[c] =
        &telemetry->metrics.GetCounter("fault_repairs_total", labels);
  }
}

}  // namespace silica
