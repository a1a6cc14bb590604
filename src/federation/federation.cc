#include "federation/federation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/state_io.h"
#include "common/thread_pool.h"
#include "federation/message.h"
#include "telemetry/telemetry.h"

namespace silica {
namespace {

// Matches Simulator::kForever; any epoch candidate at or above half of it
// means "no work anywhere".
constexpr double kNever = 1e30;

void ValidateFederationConfig(const FederationConfig& config) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("SimulateFederation: " + what);
  };
  if (config.num_libraries < 1) {
    reject("num_libraries must be >= 1 (got " +
           std::to_string(config.num_libraries) + ")");
  }
  if (config.replication < 1) {
    reject("replication must be >= 1 (got " +
           std::to_string(config.replication) + ")");
  }
  if (config.tenants < 1) {
    reject("tenants must be >= 1 (got " + std::to_string(config.tenants) + ")");
  }
  if (config.demand_skew_sigma < 0.0 || !std::isfinite(config.demand_skew_sigma)) {
    reject("demand_skew_sigma must be finite and >= 0");
  }
  if (config.geo_read_fraction < 0.0 || config.geo_read_fraction > 1.0) {
    reject("geo_read_fraction must be in [0, 1]");
  }
  if (!(config.base_latency_s > 0.0) || !(config.hop_latency_s >= 0.0)) {
    reject("base_latency_s must be > 0 and hop_latency_s >= 0");
  }
  if (config.threads < 1) {
    reject("threads must be >= 1 (got " + std::to_string(config.threads) + ")");
  }
  if (config.blackout_library >= config.num_libraries) {
    reject("blackout_library must be < num_libraries");
  }
  if (config.blackout_library >= 0 && !(config.blackout_duration_s > 0.0)) {
    reject("blackout_duration_s must be > 0 when blackout_library is set");
  }
  if (config.evacuate_library >= config.num_libraries) {
    reject("evacuate_library must be < num_libraries");
  }
  if (config.replication_writes_per_hour < 0.0) {
    reject("replication_writes_per_hour must be >= 0");
  }
  if (config.library.federation != nullptr) {
    reject("library.federation must be null (the driver installs its own hooks)");
  }
  if (config.library.telemetry != nullptr) {
    reject("library.telemetry must be null (twins run concurrently; attach "
           "telemetry to the federation config instead)");
  }
}

// What a library is currently serving on another library's behalf, keyed by
// the injected request's federated id.
struct PendingServe {
  FedMessageKind kind = FedMessageKind::kReadForward;
  int origin = 0;
  double client_arrival = 0.0;  // client arrival / data-loss time at origin
  uint64_t bytes = 0;
  uint64_t platter = 0;  // repair transfers only
  uint64_t sectors = 0;
};

// Records appended by the twin's hooks during an epoch. The twin is
// single-threaded and each record vector belongs to exactly one library, so
// the parallel phase never shares mutable state; the driver drains them at
// the barrier in library-id order.
struct ResolveRecord {
  uint64_t fed_id = 0;
  double time = 0.0;
  bool failed = false;
};
struct LossRecord {
  uint64_t platter = 0;
  uint64_t sectors = 0;
  double time = 0.0;
};

struct LibraryState {
  std::unique_ptr<LibraryTwin> twin;
  FederationHooks hooks;
  std::vector<ResolveRecord> resolved;
  std::vector<LossRecord> losses;
  std::unordered_map<uint64_t, PendingServe> serving;
  uint64_t next_fed_id = kFederatedIdBase;
  uint64_t next_seq = 0;
};

}  // namespace

FederationWorkload BuildFederationWorkload(const FederationConfig& config) {
  ValidateFederationConfig(config);
  PlacementConfig pc;
  pc.num_libraries = config.num_libraries;
  pc.replication = config.replication;
  pc.tenants = config.tenants;
  pc.demand_skew_sigma = config.demand_skew_sigma;
  pc.seed = config.seed;
  Placement placement(pc);
  MultiSiteWorkloadConfig wc;
  wc.profile = config.profile;
  wc.geo_read_fraction = config.geo_read_fraction;
  wc.seed = config.seed;
  MultiSiteWorkload workload =
      GenerateMultiSiteWorkload(wc, placement, config.library.num_info_platters);
  return FederationWorkload{std::move(placement), std::move(workload)};
}

FederationResult SimulateFederation(const FederationConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  FederationWorkload fw = BuildFederationWorkload(config);
  const int n = config.num_libraries;
  const double lookahead = config.base_latency_s + config.hop_latency_s;

  // Pairwise latency: base + hop * ring distance. The minimum over distinct
  // pairs is the lookahead — the proof obligation of the epoch scheme.
  const auto latency = [&](int a, int b) {
    int d = std::abs(a - b);
    d = std::min(d, n - d);
    return config.base_latency_s + config.hop_latency_s * static_cast<double>(d);
  };
  const auto down_at = [&](int lib, double t) {
    return lib == config.blackout_library && t >= config.blackout_start_s &&
           t < config.blackout_start_s + config.blackout_duration_s;
  };

  // Evacuation re-homes decisions, not data: geo reads of affected tenants
  // arriving at or after the evacuation originate at the re-homed site.
  Placement placement_evac = fw.placement;
  if (config.evacuate_library >= 0) {
    placement_evac.Evacuate(config.evacuate_library);
  }

  FederationResult result;
  result.lookahead_s = lookahead;
  result.geo_reads = static_cast<uint64_t>(fw.workload.geo.size());

  // Twin construction and workload arming are independent per library; fan
  // them out on the shared pool (workers persist across epochs, satellite of
  // the pool-reuse design).
  std::vector<LibraryState> libs(static_cast<size_t>(n));
  std::vector<LibrarySimConfig> cfgs(static_cast<size_t>(n), config.library);
  for (int i = 0; i < n; ++i) {
    LibraryState& lib = libs[static_cast<size_t>(i)];
    lib.hooks.on_resolve = [&lib](uint64_t fed_id, double time, bool failed) {
      lib.resolved.push_back(ResolveRecord{fed_id, time, failed});
    };
    lib.hooks.on_data_loss = [&lib](uint64_t platter, uint64_t sectors,
                                    double time) {
      lib.losses.push_back(LossRecord{platter, sectors, time});
    };
    LibrarySimConfig& cfg = cfgs[static_cast<size_t>(i)];
    cfg.seed = fw.workload.library_seeds[static_cast<size_t>(i)];
    cfg.telemetry = nullptr;
    cfg.federation = &lib.hooks;
  }
  ThreadPool* pool = nullptr;
  if (config.threads > 1 && n > 1) {
    pool = &ThreadPool::Shared(
        std::min(static_cast<size_t>(config.threads), static_cast<size_t>(n)));
    pool->BeginGeneration();
  }
  ParallelFor(pool, static_cast<size_t>(n), [&](size_t i) {
    libs[i].twin = std::make_unique<LibraryTwin>(
        cfgs[i], std::move(fw.workload.local[i]));
    libs[i].twin->Prologue();
  });

  // Sustained cross-site ingress: a deterministic send schedule per library.
  std::vector<std::pair<double, int>> repl_sends;
  if (config.replication_writes_per_hour > 0.0) {
    const double interval = 3600.0 / config.replication_writes_per_hour;
    for (int i = 0; i < n; ++i) {
      for (double t = interval; t <= config.replication_until_s; t += interval) {
        repl_sends.emplace_back(t, i);
      }
    }
    std::sort(repl_sends.begin(), repl_sends.end());
  }

  const uint64_t platter_bytes = config.library.media.payload_bytes_per_platter();
  const uint64_t sector_bytes =
      static_cast<uint64_t>(config.library.media.payload_bytes_per_sector());

  std::vector<uint64_t> outstanding(static_cast<size_t>(n), 0);  // reads in flight
  std::vector<uint64_t> ingested(static_cast<size_t>(n), 0);  // replicas landed
  std::vector<char> down_flags(static_cast<size_t>(n), 0);
  std::vector<FedMessage> pending;
  size_t next_geo = 0;
  size_t next_repl = 0;
  double T = 0.0;

  const auto account_completion = [&](double completed_at, double client_arrival,
                                      bool failed) {
    if (failed) {
      ++result.geo_failed;
    } else {
      ++result.geo_completed;
      result.geo_completion_times.Add(completed_at - client_arrival);
    }
  };

  for (;;) {
    // ---- barrier (serial; walks libraries in id order) ----
    // (a) Drain hook records from the last epoch into messages.
    for (int i = 0; i < n; ++i) {
      LibraryState& lib = libs[static_cast<size_t>(i)];
      for (const ResolveRecord& r : lib.resolved) {
        auto it = lib.serving.find(r.fed_id);
        if (it == lib.serving.end()) {
          continue;  // defensive; every injected id has a serving entry
        }
        const PendingServe serve = it->second;
        lib.serving.erase(it);
        --outstanding[static_cast<size_t>(i)];
        if (serve.origin == i) {
          // Served at the client's own site: no WAN round trip.
          account_completion(r.time, serve.client_arrival, r.failed);
          continue;
        }
        FedMessage m;
        m.kind = serve.kind == FedMessageKind::kReadForward
                     ? FedMessageKind::kReadResponse
                     : FedMessageKind::kRepairResponse;
        m.src = i;
        m.dst = serve.origin;
        m.seq = lib.next_seq++;
        m.send_time = r.time;
        m.deliver_time = r.time + latency(i, serve.origin);
        m.fed_id = r.fed_id;
        m.failed = r.failed;
        m.bytes = serve.bytes;
        m.platter = serve.platter;
        m.sectors = serve.sectors;
        m.client_arrival = serve.client_arrival;
        ++result.messages_sent;
        result.bytes_sent += m.bytes;
        if (down_at(i, m.send_time)) {
          // Partitioned mid-serve: the answer cannot leave the site.
          ++result.messages_dropped;
          if (m.kind == FedMessageKind::kReadResponse) {
            ++result.geo_failed;
          }
          continue;
        }
        pending.push_back(m);
      }
      lib.resolved.clear();
      for (const LossRecord& loss : lib.losses) {
        // Cross-library repair: source the sectors from the least-loaded
        // live peer (ties to the smallest id).
        int dst = -1;
        uint64_t best = 0;
        for (int j = 0; j < n; ++j) {
          if (j == i || down_at(j, loss.time)) {
            continue;
          }
          if (dst < 0 || outstanding[static_cast<size_t>(j)] < best) {
            dst = j;
            best = outstanding[static_cast<size_t>(j)];
          }
        }
        if (dst < 0) {
          continue;  // no live peer: the twin's ledger already recorded loss
        }
        FedMessage m;
        m.kind = FedMessageKind::kRepairTransfer;
        m.src = i;
        m.dst = dst;
        m.seq = lib.next_seq++;
        m.send_time = loss.time;
        m.deliver_time = loss.time + latency(i, dst);
        m.fed_id = libs[static_cast<size_t>(dst)].next_fed_id++;
        m.platter = loss.platter;
        m.sectors = loss.sectors;
        m.bytes = loss.sectors * sector_bytes;
        m.client_arrival = loss.time;
        // The peer reads the equivalent information platter of its own copy
        // (a lost redundancy platter maps onto its information image).
        m.request.id = m.fed_id;
        m.request.bytes = m.bytes;
        m.request.platter = loss.platter % config.library.num_info_platters;
        ++result.repair_transfers;
        ++result.messages_sent;
        result.bytes_sent += m.bytes;
        if (down_at(i, loss.time)) {
          ++result.messages_dropped;
          continue;
        }
        ++outstanding[static_cast<size_t>(dst)];
        pending.push_back(m);
      }
      lib.losses.clear();
    }

    // (b) Size the epoch: t_next = (earliest possible activity anywhere) +
    // lookahead. Activity is a twin's next queued event, a pending message
    // delivery, an unrouted geo arrival, or an unsent replication write; no
    // activity at time t can cause a delivery before t + lookahead, so every
    // message created later lands at or after t_next — the next epoch's start
    // — and injection never back-dates a twin. Pending deliveries inside the
    // epoch are handed over before the twins run (step e), so bounding by
    // deliver + lookahead rather than deliver keeps epochs coarse: one epoch
    // absorbs a whole burst of deliveries instead of one epoch per message.
    double min_activity = kNever;
    for (int i = 0; i < n; ++i) {
      min_activity = std::min(min_activity, libs[static_cast<size_t>(i)]
                                                .twin->NextEventTime());
    }
    for (const FedMessage& m : pending) {
      min_activity = std::min(min_activity, m.deliver_time);
    }
    if (next_geo < fw.workload.geo.size()) {
      min_activity =
          std::min(min_activity, fw.workload.geo[next_geo].request.arrival);
    }
    if (next_repl < repl_sends.size()) {
      min_activity = std::min(min_activity, repl_sends[next_repl].first);
    }
    if (min_activity >= 0.5 * kNever) {
      break;  // no events, no messages, no unrouted work anywhere: done
    }
    const double t_next = min_activity + lookahead;

    // (c) Route geo reads arriving inside this epoch. The serving replica is
    // chosen now, at the client's arrival time: least outstanding forwards
    // among live replicas, ties to the smallest id.
    while (next_geo < fw.workload.geo.size() &&
           fw.workload.geo[next_geo].request.arrival < t_next) {
      const GeoRead& geo = fw.workload.geo[next_geo++];
      const double arrival = geo.request.arrival;
      int origin = geo.origin;
      if (config.evacuate_library >= 0 && arrival >= config.evacuate_at_s &&
          origin == config.evacuate_library) {
        origin = placement_evac.home_of(geo.tenant);
      }
      if (down_at(origin, arrival)) {
        ++result.geo_unroutable;  // the client's entry point is dark
        continue;
      }
      for (int j = 0; j < n; ++j) {
        down_flags[static_cast<size_t>(j)] = down_at(j, arrival) ? 1 : 0;
      }
      const int serving = fw.placement.RouteRead(geo.tenant, outstanding,
                                                 down_flags);
      if (serving < 0) {
        ++result.geo_unroutable;
        continue;
      }
      ++result.geo_routed;
      ++outstanding[static_cast<size_t>(serving)];
      LibraryState& dst = libs[static_cast<size_t>(serving)];
      const uint64_t fed_id = dst.next_fed_id++;
      if (serving == origin) {
        dst.serving.emplace(fed_id,
                            PendingServe{FedMessageKind::kReadForward, origin,
                                         arrival, geo.request.bytes, 0, 0});
        ReadRequest req = geo.request;
        req.id = fed_id;
        req.parent = 0;
        dst.twin->InjectArrival(req, arrival);
        continue;
      }
      FedMessage m;
      m.kind = FedMessageKind::kReadForward;
      m.src = origin;
      m.dst = serving;
      m.seq = libs[static_cast<size_t>(origin)].next_seq++;
      m.send_time = arrival;
      m.deliver_time = arrival + latency(origin, serving);
      m.fed_id = fed_id;
      m.bytes = geo.request.bytes;
      m.client_arrival = arrival;
      m.request = geo.request;
      ++result.messages_sent;
      result.bytes_sent += m.bytes;
      pending.push_back(m);
    }

    // (d) Replication sends inside this epoch, rebalanced to the live site
    // with the fewest ingested replicas.
    while (next_repl < repl_sends.size() &&
           repl_sends[next_repl].first < t_next) {
      const double t_send = repl_sends[next_repl].first;
      const int src = repl_sends[next_repl].second;
      ++next_repl;
      ++result.messages_sent;
      result.bytes_sent += platter_bytes;
      if (down_at(src, t_send)) {
        ++result.messages_dropped;
        continue;
      }
      int dst = -1;
      uint64_t best = 0;
      for (int j = 0; j < n; ++j) {
        if (j == src || down_at(j, t_send)) {
          continue;
        }
        if (dst < 0 || ingested[static_cast<size_t>(j)] < best) {
          dst = j;
          best = ingested[static_cast<size_t>(j)];
        }
      }
      if (dst < 0) {
        ++result.messages_dropped;
        continue;
      }
      ++ingested[static_cast<size_t>(dst)];
      FedMessage m;
      m.kind = FedMessageKind::kReplicationWrite;
      m.src = src;
      m.dst = dst;
      m.seq = libs[static_cast<size_t>(src)].next_seq++;
      m.send_time = t_send;
      m.deliver_time = t_send + latency(src, dst);
      m.bytes = platter_bytes;
      pending.push_back(m);
    }

    // (e) Deliver everything due by the end of this epoch, in
    // (deliver_time, src, seq) order — the determinism contract.
    std::vector<FedMessage> due;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].deliver_time <= t_next) {
        due.push_back(pending[i]);
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    std::sort(due.begin(), due.end(), FedMessageBefore);
    for (const FedMessage& m : due) {
      if (down_at(m.dst, m.deliver_time)) {
        ++result.messages_dropped;
        switch (m.kind) {
          case FedMessageKind::kReadForward:
            ++result.geo_failed;  // the forward died with the target
            --outstanding[static_cast<size_t>(m.dst)];
            break;
          case FedMessageKind::kReadResponse:
            ++result.geo_failed;  // served, but the client never heard
            break;
          case FedMessageKind::kRepairTransfer:
            --outstanding[static_cast<size_t>(m.dst)];
            break;
          default:
            break;
        }
        continue;
      }
      ++result.messages_delivered;
      LibraryState& dst = libs[static_cast<size_t>(m.dst)];
      switch (m.kind) {
        case FedMessageKind::kReadForward: {
          dst.serving.emplace(m.fed_id,
                              PendingServe{FedMessageKind::kReadForward, m.src,
                                           m.client_arrival, m.bytes, 0, 0});
          ReadRequest req = m.request;
          req.id = m.fed_id;
          req.parent = 0;
          req.arrival = m.deliver_time;
          dst.twin->InjectArrival(req, m.deliver_time);
          break;
        }
        case FedMessageKind::kReadResponse:
          account_completion(m.deliver_time, m.client_arrival, m.failed);
          break;
        case FedMessageKind::kReplicationWrite:
          ++result.replication_writes;
          if (dst.twin->explicit_writes()) {
            dst.twin->InjectReplicatedPlatter(m.deliver_time);
          }
          break;
        case FedMessageKind::kRepairTransfer: {
          dst.serving.emplace(
              m.fed_id, PendingServe{FedMessageKind::kRepairTransfer, m.src,
                                     m.client_arrival, m.bytes, m.platter,
                                     m.sectors});
          ReadRequest req = m.request;
          req.arrival = m.deliver_time;
          dst.twin->InjectArrival(req, m.deliver_time);
          break;
        }
        case FedMessageKind::kRepairResponse:
          if (!m.failed) {
            result.repair_bytes += m.bytes;
          }
          break;
      }
    }

    // ---- epoch: every library runs (T, t_next] fully in parallel ----
    ParallelFor(pool, static_cast<size_t>(n),
                [&](size_t i) { libs[i].twin->RunUntil(t_next); });
    T = t_next;
    ++result.epochs;
  }
  (void)T;

  // Post-drain accounting per twin (independent; fan out).
  result.libraries.resize(static_cast<size_t>(n));
  ParallelFor(pool, static_cast<size_t>(n),
              [&](size_t i) { result.libraries[i] = libs[i].twin->Finish(); });

  result.messages_in_flight = static_cast<uint64_t>(pending.size());
  for (const LibrarySimResult& lib : result.libraries) {
    result.events_executed += lib.events_executed;
    result.makespan = std::max(result.makespan, lib.makespan);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (config.telemetry != nullptr) {
    MetricsRegistry& metrics = config.telemetry->metrics;
    metrics.GetCounter("fed_messages_sent_total")
        .Increment(static_cast<double>(result.messages_sent));
    metrics.GetCounter("fed_messages_delivered_total")
        .Increment(static_cast<double>(result.messages_delivered));
    metrics.GetCounter("fed_messages_dropped_total")
        .Increment(static_cast<double>(result.messages_dropped));
    metrics.GetCounter("fed_bytes_sent_total")
        .Increment(static_cast<double>(result.bytes_sent));
    metrics.GetCounter("fed_geo_reads_total")
        .Increment(static_cast<double>(result.geo_reads));
    metrics.GetCounter("fed_geo_completed_total")
        .Increment(static_cast<double>(result.geo_completed));
    metrics.GetCounter("fed_repair_transfers_total")
        .Increment(static_cast<double>(result.repair_transfers));
    metrics.GetCounter("fed_replication_writes_total")
        .Increment(static_cast<double>(result.replication_writes));
    metrics.GetCounter("fed_epochs_total")
        .Increment(static_cast<double>(result.epochs));
    for (int i = 0; i < n; ++i) {
      metrics
          .GetCounter("fed_library_events_total",
                      {{"library", std::to_string(i)}})
          .Increment(static_cast<double>(
              result.libraries[static_cast<size_t>(i)].events_executed));
    }
  }
  return result;
}

template <class Ar>
void FederationResult::Visit(Ar& ar) {
  ar(libraries, messages_sent, messages_delivered, messages_dropped,
     messages_in_flight, bytes_sent, geo_reads, geo_routed, geo_unroutable,
     geo_completed, geo_failed, geo_completion_times, repair_transfers,
     repair_bytes, replication_writes, epochs, lookahead_s, events_executed,
     makespan);
}

template void FederationResult::Visit(StateWriter&);
template void FederationResult::Visit(StateReader&);

void SaveFederationResult(StateWriter& w, const FederationResult& result) {
  w(result);
}

}  // namespace silica
