// Rail occupancy tracking for congestion modelling (Section 4.1).
//
// The traffic manager's job is to keep shuttles from conflicting on shared rails.
// We model the panel as lanes (one per shelf level) split into coarse segments (one
// per rack). A horizontal traversal reserves the segments it crosses, in order; if a
// segment is still held by another shuttle, the newcomer waits (that wait *is* the
// congestion overhead measured in Figure 7(a)) and pays an extra stop/start
// acceleration cycle in the energy model of Figure 7(b).
#ifndef SILICA_LIBRARY_RAIL_TRAFFIC_H_
#define SILICA_LIBRARY_RAIL_TRAFFIC_H_

#include <cstdint>
#include <vector>

namespace silica {

class Counter;
struct Telemetry;

class RailTraffic {
 public:
  RailTraffic(int lanes, int segments);

  // Publishes traversal / congestion counters into the registry; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry);

  struct Traversal {
    double depart_time = 0.0;   // when the shuttle actually leaves (>= requested)
    double arrive_time = 0.0;   // when it reaches the destination
    double congestion_wait = 0.0;  // total time spent waiting on busy segments
    int stops = 0;                 // number of forced stops (extra accel cycles)
  };

  // Plans a traversal on `lane` from x-segment `from` to `to` starting at `now`,
  // with `segment_time` seconds needed to cross one segment. Reserves the segments
  // and returns the timing. Segments are crossed sequentially; each is released as
  // the shuttle exits it.
  Traversal Traverse(int lane, int from, int to, double now, double segment_time);

  // Congestion query for route planning: a pure read over the reservation
  // table — nothing is reserved, so probing candidate lanes before committing
  // to one leaves the simulation state untouched.
  //
  // `wait` replays Traverse's sequential walk and totals the time the shuttle
  // would spend waiting on busy segments; `occupied` counts segments of
  // [from, to] still reserved at `now` — the per-segment occupancy that feeds
  // the detour cost model. Both come from one walk (the router needs both for
  // every candidate lane), and a lane whose reservations have all lapsed is
  // answered from the per-lane watermark without touching its segments.
  struct LaneProbe {
    double wait = 0.0;
    int occupied = 0;
  };
  LaneProbe Probe(int lane, int from, int to, double now,
                  double segment_time) const;

  // Forgets reservations older than `horizon` (keeps the table small in long runs).
  void Expire(double now);

  // Checkpoint field list (common/state_io.h): the reservation table and
  // lane watermarks are live state (in-flight traversals shape future
  // congestion waits), so they round-trip verbatim. Loading requires matching
  // lane/segment geometry.
  template <class Ar>
  void Visit(Ar& ar) {
    ar.Fixed(busy_until_, "RailTraffic checkpoint: lane count mismatch",
             [](Ar& a, std::vector<double>& lane) {
               a.Fixed(lane, "RailTraffic checkpoint: segment count mismatch");
             });
    ar.Fixed(lane_max_, "RailTraffic checkpoint: lane count mismatch");
  }

 private:
  // busy_until_[lane][segment]: the time the segment becomes free.
  std::vector<std::vector<double>> busy_until_;
  // Per-lane upper bound on every busy_until_ entry (reservations only grow
  // within a traversal, so the arrival time of the last one is the lane max).
  // A lane whose watermark is <= now is provably idle end to end: Traverse and
  // Probe skip the per-segment wait logic entirely, which is what keeps the
  // congestion router cheap on the mostly-idle lanes of a large panel.
  std::vector<double> lane_max_;
  Counter* traversals_counter_ = nullptr;
  Counter* congestion_stops_counter_ = nullptr;
  Counter* congestion_wait_counter_ = nullptr;
};

}  // namespace silica

#endif  // SILICA_LIBRARY_RAIL_TRAFFIC_H_
