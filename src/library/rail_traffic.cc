#include "library/rail_traffic.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace silica {

void RailTraffic::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    traversals_counter_ = nullptr;
    congestion_stops_counter_ = nullptr;
    congestion_wait_counter_ = nullptr;
    return;
  }
  traversals_counter_ = &telemetry->metrics.GetCounter("rail_traversals_total");
  congestion_stops_counter_ =
      &telemetry->metrics.GetCounter("rail_congestion_stops_total");
  congestion_wait_counter_ =
      &telemetry->metrics.GetCounter("rail_congestion_wait_seconds_total");
}

RailTraffic::RailTraffic(int lanes, int segments) {
  if (lanes < 1 || segments < 1) {
    throw std::invalid_argument("RailTraffic: need at least one lane and segment");
  }
  busy_until_.assign(static_cast<size_t>(lanes),
                     std::vector<double>(static_cast<size_t>(segments), 0.0));
  lane_max_.assign(static_cast<size_t>(lanes), 0.0);
}

RailTraffic::Traversal RailTraffic::Traverse(int lane, int from, int to, double now,
                                             double segment_time) {
  auto& lane_busy = busy_until_.at(static_cast<size_t>(lane));
  // Validate the endpoints once; every interior segment lies between them.
  lane_busy.at(static_cast<size_t>(from));
  lane_busy.at(static_cast<size_t>(to));
  double* const busy = lane_busy.data();
  const int step = to >= from ? 1 : -1;
  double& watermark = lane_max_[static_cast<size_t>(lane)];

  RailTraffic::Traversal result;
  result.depart_time = now;
  double t = now;
  if (watermark <= now) {
    // Idle lane: no reservation outlives `now`, so no segment can force a
    // wait and the reservations form the same ramp the general walk writes.
    for (int segment = from;; segment += step) {
      t += segment_time;
      busy[segment] = t;
      if (segment == to) {
        break;
      }
    }
  } else {
    for (int segment = from;; segment += step) {
      const double held_until = busy[segment];
      if (held_until > t) {
        result.congestion_wait += held_until - t;
        ++result.stops;
        t = held_until;
        if (segment == from) {
          result.depart_time = t;
        }
      }
      // Occupy this segment while crossing it.
      busy[segment] = t + segment_time;
      t += segment_time;
      if (segment == to) {
        break;
      }
    }
  }
  result.arrive_time = t;
  // Reservations only grow under a traversal and increase along the walk, so
  // the final one — the arrival time — is the new lane maximum.
  if (t > watermark) {
    watermark = t;
  }
  if (traversals_counter_ != nullptr) {
    traversals_counter_->Increment();
    if (result.stops > 0) {
      congestion_stops_counter_->Increment(static_cast<double>(result.stops));
      congestion_wait_counter_->Increment(result.congestion_wait);
    }
  }
  return result;
}

RailTraffic::LaneProbe RailTraffic::Probe(int lane, int from, int to, double now,
                                          double segment_time) const {
  const auto& lane_busy = busy_until_.at(static_cast<size_t>(lane));
  lane_busy.at(static_cast<size_t>(from));
  lane_busy.at(static_cast<size_t>(to));
  LaneProbe probe;
  if (lane_max_[static_cast<size_t>(lane)] <= now) {
    return probe;  // idle lane: nothing held past `now`, no wait possible
  }
  const double* const busy = lane_busy.data();
  const int step = to >= from ? 1 : -1;
  double t = now;
  for (int segment = from;; segment += step) {
    const double held_until = busy[segment];
    if (held_until > now) {
      ++probe.occupied;
    }
    if (held_until > t) {
      probe.wait += held_until - t;
      t = held_until;
    }
    t += segment_time;
    if (segment == to) {
      break;
    }
  }
  return probe;
}

void RailTraffic::Expire(double now) {
  for (auto& lane : busy_until_) {
    for (auto& busy : lane) {
      busy = std::min(busy, now + 60.0);  // clamp pathological reservations
    }
  }
  for (auto& watermark : lane_max_) {
    watermark = std::min(watermark, now + 60.0);
  }
}

}  // namespace silica
