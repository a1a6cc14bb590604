// The two service workloads, driven through FrontEnd over SilicaService:
//
//   ingest  an open-loop, virtual-time, multi-tenant stream of encoded frames
//           (about 85% Put, 10% Get, 5% Delete, 1-8 KB objects);
//   recall  a Get-only Zipf stream over an archive written at set-up, with
//           platters marked unavailable so about 5% of reads need platter-set
//           recovery.
//
// Every Get is checked byte-for-byte against the seeded generator. Host time
// of each read and write batch is measured from outside, as the gap before
// the first completion callback the batch produced (trace_math.h).
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/data_pipeline.h"
#include "core/silica_service.h"
#include "ecc/ldpc.h"
#include "frontend/frontend.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using silica::OpType;
using silica::StatusCode;

// The service's platter sets: 4 information + 2 redundancy platters.
constexpr int kSetInfo = 4;
constexpr int kSetRedundancy = 2;

constexpr uint32_t kMinObjectBytes = 1024;
constexpr uint32_t kMaxObjectBytes = 8192;

// Writes flush once about 2.6 platters of payload are staged. An ingest
// repetition stages about 5.5 such batches, so every seed runs the same
// number of flushes; a seed-dependent flush count would move ops_per_s by a
// whole flush.
constexpr uint64_t kFlushPlatterTenths = 26;

// Ingest: tenants, virtual arrival rate and operations per repetition.
constexpr int kIngestTenants = 16;
constexpr double kIngestRatePerS = 100.0;
constexpr size_t kIngestOps = 1000;
// A Delete targets the tenant's oldest live object, and only once its Put is
// this old in virtual time: by then it has been flushed and committed (a
// Delete of a still-staged name would find nothing to shred).
constexpr double kDeleteMinAgeS = 4.0;

// Recall: archive size, Get stream, popularity skew, and the share of Gets
// that need platter-set recovery.
constexpr int kRecallTenants = 8;
constexpr size_t kRecallObjects = 720;
constexpr size_t kRecallGets = 400;
constexpr double kRecallRatePerS = 30.0;
constexpr double kRecallZipfS = 0.9;
constexpr double kDegradedShare = 0.05;
constexpr size_t kDegradedSets = 2;  // one unavailable platter in each

struct Object {
  std::string name;
  uint64_t tenant = 0;
  uint32_t size = 0;
  uint64_t content_seed = 0;
  bool deleted = false;  // some Delete in the stream targets it
};

struct Op {
  OpType op = OpType::kGet;
  uint32_t object = 0;
  double time = 0.0;
};

struct Stream {
  std::vector<Object> objects;
  std::vector<Op> ops;
  std::vector<std::vector<uint8_t>> wires;  // EncodeFrame bytes, one per op
};

Object MakeObject(silica::Rng& rng, uint64_t tenant, size_t index, uint32_t size) {
  Object o;
  o.tenant = tenant;
  o.name = "t" + std::to_string(tenant) + "/o" + std::to_string(index);
  o.size = size;
  o.content_seed = rng.NextU64();
  return o;
}

// Object sizes, uniform in [kMinObjectBytes, kMaxObjectBytes], from a fixed
// scenario seed rather than --seed: the bytes a repetition moves then do not
// vary with the seed, and neither does the platter and flush count.
std::vector<uint32_t> ScenarioSizes(size_t n) {
  silica::Rng rng(0x5111CA);
  std::vector<uint32_t> sizes(n);
  for (uint32_t& size : sizes) {
    size = static_cast<uint32_t>(rng.UniformInt(kMinObjectBytes, kMaxObjectBytes));
  }
  return sizes;
}

template <typename T>
void Shuffle(std::vector<T>& values, silica::Rng& rng) {
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[static_cast<size_t>(
                                 rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
}

void EncodeWires(Stream& stream) {
  stream.wires.reserve(stream.ops.size());
  for (const Op& op : stream.ops) {
    const Object& o = stream.objects[op.object];
    silica::RequestFrame frame;
    frame.tenant = o.tenant;
    frame.op = op.op;
    frame.name = o.name;
    frame.read_bytes_hint = o.size;
    if (op.op == OpType::kPut) {
      frame.payload = Payload(o.content_seed, o.size);
    }
    stream.wires.push_back(silica::EncodeFrame(frame));
  }
}

// Mixed stream: a Put creates a fresh object; a Get reads, and a Delete
// shreds, a live object of the same tenant. Per-tenant FIFO admission keeps
// each tenant's operations in stream order. The op mix is drawn as a seeded
// shuffle of exactly 85% Put, 10% Get and 5% Delete slots; a Get or Delete
// slot whose tenant has nothing to read or shred yet becomes a Put.
Stream GenerateIngest(uint64_t seed) {
  silica::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const std::vector<uint32_t> sizes = ScenarioSizes(kIngestOps);
  std::vector<OpType> slots(kIngestOps, OpType::kPut);
  std::fill_n(slots.begin(), kIngestOps / 10, OpType::kGet);
  std::fill_n(slots.begin() + kIngestOps / 10, kIngestOps / 20, OpType::kDelete);
  Shuffle(slots, rng);
  Stream stream;
  std::vector<std::vector<uint32_t>> live(kIngestTenants);  // in Put order
  std::vector<double> put_time;  // per object
  double t = 0.0;
  for (size_t i = 0; i < kIngestOps; ++i) {
    t += rng.Exponential(kIngestRatePerS);
    const auto tenant = static_cast<uint64_t>(rng.UniformInt(0, kIngestTenants - 1));
    auto& mine = live[tenant];
    Op op;
    op.time = t;
    if (slots[i] == OpType::kGet && !mine.empty()) {
      op.op = OpType::kGet;
      op.object = mine[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mine.size()) - 1))];
    } else if (slots[i] == OpType::kDelete && !mine.empty() &&
               put_time[mine.front()] < t - kDeleteMinAgeS) {
      op.op = OpType::kDelete;
      op.object = mine.front();
      stream.objects[op.object].deleted = true;
      mine.erase(mine.begin());
    } else {
      op.op = OpType::kPut;
      op.object = static_cast<uint32_t>(stream.objects.size());
      const size_t index = stream.objects.size();
      stream.objects.push_back(MakeObject(rng, tenant, index, sizes[index]));
      put_time.push_back(t);
      mine.push_back(op.object);
    }
    stream.ops.push_back(op);
  }
  EncodeWires(stream);
  return stream;
}

silica::ServiceConfig MakeServiceConfig(const Options& options) {
  silica::ServiceConfig config;
  config.platter_set = {kSetInfo, kSetRedundancy};
  config.seed = options.seed;
  config.threads = options.threads;
  return config;
}

silica::FrontEndConfig MakeFrontEndConfig(const silica::SilicaService& service) {
  const uint64_t platter_capacity =
      service.data_plane().geometry().payload_bytes_per_platter();
  silica::FrontEndConfig config;
  // No backpressure: every operation is admitted, so failures are real.
  config.admission.max_queue_depth = size_t{1} << 20;
  config.batch.flush_bytes = platter_capacity * kFlushPlatterTenths / 10;
  config.batch.max_writes_per_batch = size_t{1} << 20;
  config.batch.max_write_linger_s = 60.0;  // flushes are size-triggered
  config.return_data = true;
  return config;
}

// Drives one FrontEnd through a Stream and checks every completion.
class Replayer {
 public:
  Replayer(silica::FrontEnd& frontend, const silica::SilicaService& service,
         const Stream& stream, const std::unordered_set<uint64_t>& unavailable,
         SpanRecorder& spans, Report& report)
      : frontend_(frontend),
        service_(service),
        stream_(stream),
        unavailable_(unavailable),
        spans_(spans),
        report_(report) {
    frontend_.SetCompletionCallback(
        [this](const silica::Completion& c) { OnCompletion(c); });
  }

  void Submit(size_t index, double now) {
    Call("frontend.SubmitEncoded", index + 1, false, [&] {
      const silica::RequestId id =
          frontend_.SubmitEncoded(stream_.wires[index], now);
      if (id != index + 1) {
        report_.Violation("request ids are not allocated in submit order");
      }
    });
  }
  void Pump(double now) {
    Call("frontend.Pump", 0, true, [&] { frontend_.Pump(now); });
  }
  void Drain(double now) {
    Call("frontend.Drain", 0, false, [&] { frontend_.Drain(now); });
  }

  // Outcomes.
  uint64_t terminal = 0;
  uint64_t failures = 0;
  uint64_t committed_bytes = 0;
  uint64_t returned_bytes = 0;
  uint64_t glass_reads = 0;
  uint64_t degraded_reads = 0;
  uint64_t gets = 0;
  std::vector<double> read_exec_s;   // per Get served from glass
  std::vector<double> flush_exec_s;  // per write batch
  std::vector<int> idle_pump_spans;  // Pump spans that ran no batch
  silica::PercentileTracker latency; // virtual submit -> complete
  uint64_t fingerprint = 0xcbf29ce484222325ull;

 private:
  template <typename Fn>
  void Call(const char* name, uint64_t request, bool pump, Fn&& fn) {
    const auto& c = frontend_.counters();
    const uint64_t batches_before = c.read_batches + c.flushes;
    events_.clear();
    glass_.clear();
    const double entry = Now();
    const int span = spans_.Begin(name, request);
    fn();
    spans_.End(span);
    Harvest(entry);
    if (pump && span >= 0 && c.read_batches + c.flushes == batches_before) {
      idle_pump_spans.push_back(span);
    }
  }

  void OnCompletion(const silica::Completion& c) {
    const double enter = Now();
    const int span = spans_.Begin("bench.callback", c.id);
    const auto& counters = frontend_.counters();
    const Object& object = stream_.objects[stream_.ops[c.id - 1].object];
    uint64_t batch = 0;
    bool glass = false;
    bool ok = c.status == StatusCode::kOk;
    switch (c.op) {
      case OpType::kPut:
        if (ok) {
          committed_bytes += object.size;
          batch = (uint64_t{1} << 63) | counters.flushes;
        }
        break;
      case OpType::kGet: {
        ++gets;
        const bool staged = counters.staged_read_hits != staged_hits_seen_;
        staged_hits_seen_ = counters.staged_read_hits;
        if (!staged) {
          batch = counters.read_batches;
        }
        if (ok) {
          ok = c.data.has_value() &&
               *c.data == Payload(object.content_seed, object.size);
          if (!ok) {
            report_.Violation("Get of " + object.name + " returned wrong bytes");
          }
          returned_bytes += object.size;
          if (!staged) {
            glass = true;
            ++glass_reads;
            const auto version = service_.metadata().Lookup(object.name);
            if (version && unavailable_.count(version->platter_id)) {
              ++degraded_reads;
            }
          }
        } else if (c.status == StatusCode::kNotFound) {
          ok = object.deleted;
          if (!ok) {
            report_.Violation("Get of never-deleted " + object.name +
                              " returned kNotFound");
          }
        }
        break;
      }
      case OpType::kDelete:
        break;
    }
    if (!ok) {
      ++failures;
      if (c.op != OpType::kGet || c.status != StatusCode::kNotFound) {
        report_.Violation(std::string(silica::OpName(c.op)) + " of " +
                          object.name + " failed: " +
                          silica::StatusName(c.status));
      }
    }
    ++terminal;
    latency.Add(c.complete_time - c.submit_time);
    fingerprint = (fingerprint ^ c.id) * 0x100000001b3ull;
    fingerprint = (fingerprint ^ static_cast<uint64_t>(c.status)) * 0x100000001b3ull;
    fingerprint =
        (fingerprint ^ static_cast<uint64_t>(std::llround(c.complete_time * 1e6))) *
        0x100000001b3ull;
    spans_.End(span);
    events_.push_back(CallbackEvent{enter, Now(), batch});
    glass_.push_back(glass);
  }

  void Harvest(double entry) {
    const BatchTimes times = BatchExecTimes(entry, events_);
    size_t member = 0;
    uint64_t current = 0;
    for (size_t i = 0; i < events_.size(); ++i) {
      const uint64_t batch = events_[i].batch;
      if (batch == 0) {
        current = 0;
        continue;
      }
      const double sample = times.per_member[member++];
      const bool write = (batch >> 63) != 0;
      if (batch != current) {
        current = batch;
        if (write) {
          flush_exec_s.push_back(sample);
        }
      }
      if (!write && glass_[i]) {
        read_exec_s.push_back(sample);
      }
    }
  }

  silica::FrontEnd& frontend_;
  const silica::SilicaService& service_;
  const Stream& stream_;
  const std::unordered_set<uint64_t>& unavailable_;
  SpanRecorder& spans_;
  Report& report_;
  std::vector<CallbackEvent> events_;
  std::vector<bool> glass_;
  uint64_t staged_hits_seen_ = 0;
};

struct DecodeCounts {
  double sectors_read = 0, ldpc_failures = 0, nc_recoveries = 0,
         set_recoveries = 0, recovery_reads = 0, platters_verified = 0;
};

// The data plane's decode_*_total counters (created when the telemetry was
// attached); all zero without telemetry.
DecodeCounts ReadDecodeCounters(silica::Telemetry* telemetry) {
  DecodeCounts d;
  if (telemetry == nullptr) {
    return d;
  }
  auto& m = telemetry->metrics;
  d.sectors_read = m.GetCounter("decode_sectors_read_total").value();
  d.ldpc_failures = m.GetCounter("decode_ldpc_failures_total").value();
  d.nc_recoveries = m.GetCounter("decode_track_nc_recoveries_total").value() +
                    m.GetCounter("decode_large_nc_recoveries_total").value();
  d.set_recoveries = m.GetCounter("decode_platter_set_recoveries_total").value();
  d.recovery_reads = m.GetCounter("decode_recovery_reads_total").value();
  d.platters_verified = m.GetCounter("decode_platters_verified_total").value();
  return d;
}

DecodeCounts Minus(const DecodeCounts& a, const DecodeCounts& b) {
  return DecodeCounts{a.sectors_read - b.sectors_read,
                      a.ldpc_failures - b.ldpc_failures,
                      a.nc_recoveries - b.nc_recoveries,
                      a.set_recoveries - b.set_recoveries,
                      a.recovery_reads - b.recovery_reads,
                      a.platters_verified - b.platters_verified};
}

// Per-call host time of the data-plane classes, measured by calling them
// directly on the workload's DataPlane (its thread pool and geometry).
struct IsolationTimes {
  double write_platter_s = 0, verify_platter_s = 0, encode_set_s = 0,
         read_file_s = 0, recover_track_s = 0;
};

IsolationTimes TimeDataPlane(const silica::DataPlane& plane, uint64_t seed,
                             SpanRecorder& spans, Report& report) {
  const silica::PlatterSetConfig set{kSetInfo, kSetRedundancy};
  silica::PlatterWriter writer(plane);
  silica::PlatterVerifier verifier(plane);
  silica::PlatterReader reader(plane);
  silica::PlatterSetCodec codec(plane, set);
  silica::Rng rng(seed ^ 0x51ca);

  // Files filling about 85% of one platter.
  const uint64_t capacity = plane.geometry().payload_bytes_per_platter();
  std::vector<silica::FileData> files;
  uint64_t used = 0;
  for (uint64_t id = 1;; ++id) {
    const auto size = static_cast<size_t>(rng.UniformInt(kMinObjectBytes, kMaxObjectBytes));
    if (used + size > capacity * 85 / 100) {
      break;
    }
    used += size;
    files.push_back(silica::FileData{id, "iso/" + std::to_string(id),
                                     Payload(rng.NextU64(), size)});
  }

  std::vector<silica::WrittenPlatter> info;
  for (int p = 0; p < set.info; ++p) {
    {
      ScopedSpan s(spans, "dataplane.WritePlatter");
      info.push_back(writer.WritePlatter(static_cast<uint64_t>(p + 1), files, rng));
    }
    ScopedSpan s(spans, "dataplane.Verify");
    if (!verifier.Verify(info.back().platter, rng).durable) {
      report.Violation("isolation platter failed verification");
    }
  }
  std::vector<const silica::WrittenPlatter*> members;
  for (const auto& w : info) {
    members.push_back(&w);
  }
  std::vector<silica::WrittenPlatter> redundancy;
  for (int k = 0; k < 2; ++k) {
    ScopedSpan s(spans, "dataplane.EncodeRedundancyPlatters");
    redundancy = codec.EncodeRedundancyPlatters(members, 100, rng);
  }

  const auto& header = info[0].platter.header();
  for (size_t i = 0; i < header.files.size() && i < 24; ++i) {
    std::optional<std::vector<uint8_t>> bytes;
    {
      ScopedSpan s(spans, "dataplane.ReadFile");
      bytes = reader.ReadFile(info[0].platter, header.files[i], rng);
    }
    if (!bytes || *bytes != files[i].bytes) {
      report.Violation("isolation ReadFile returned wrong bytes");
    }
  }

  // Platter 0 missing: rebuild its tracks from the other three and the two
  // redundancy platters.
  const std::vector<const silica::GlassPlatter*> avail_info = {
      &info[1].platter, &info[2].platter, &info[3].platter};
  const std::vector<const silica::GlassPlatter*> avail_red = {
      &redundancy[0].platter, &redundancy[1].platter};
  for (int track = 0; track < 4; ++track) {
    ScopedSpan s(spans, "dataplane.RecoverTrack");
    if (!codec.RecoverTrack(avail_info, {1, 2, 3}, avail_red, {0, 1}, 0, track,
                            rng)) {
      report.Violation("isolation RecoverTrack failed");
    }
  }

  IsolationTimes t;
  t.write_platter_s = Quantile(spans.SelfTimesOf("dataplane.WritePlatter"), 0.5);
  t.verify_platter_s = Quantile(spans.SelfTimesOf("dataplane.Verify"), 0.5);
  t.encode_set_s =
      Quantile(spans.SelfTimesOf("dataplane.EncodeRedundancyPlatters"), 0.5);
  t.read_file_s = Quantile(spans.SelfTimesOf("dataplane.ReadFile"), 0.5);
  t.recover_track_s = Quantile(spans.SelfTimesOf("dataplane.RecoverTrack"), 0.5);
  return t;
}

// Totals over the repetitions of one service workload.
struct ServiceTotals {
  RepTimer timer;
  std::vector<double> setup_s;
  uint64_t terminal = 0, failures = 0;
  std::vector<double> ops_per_s, user_mb_per_s;  // per repetition
  std::vector<double> read_exec_s, flush_exec_s;
  silica::PercentileTracker first_latency;
  uint64_t first_fingerprint = 0;
};

void CheckConservation(const silica::FrontEnd& frontend, const Replayer& replayer,
                       size_t ops, Report& report) {
  const auto& c = frontend.counters();
  if (!c.ConservesAdmission()) {
    report.Violation("front-end submitted != accepted + rejected");
  }
  if (!c.ConservesCompletion()) {
    report.Violation("front-end admitted != completed + failed");
  }
  if (replayer.terminal != ops || c.submitted != ops) {
    report.Violation("not every submitted operation completed exactly once");
  }
}

void AddRep(ServiceTotals& totals, const Replayer& replayer, double setup_s,
            double timed_s, Report& report) {
  timed_s = std::max(timed_s, 1e-9);
  totals.setup_s.push_back(setup_s);
  totals.timer.timed_s += timed_s;
  ++totals.timer.reps;
  totals.terminal += replayer.terminal;
  totals.failures += replayer.failures;
  totals.ops_per_s.push_back(static_cast<double>(replayer.terminal) / timed_s);
  totals.user_mb_per_s.push_back(
      static_cast<double>(replayer.committed_bytes + replayer.returned_bytes) / 1e6 /
      timed_s);
  totals.read_exec_s.insert(totals.read_exec_s.end(), replayer.read_exec_s.begin(),
                            replayer.read_exec_s.end());
  totals.flush_exec_s.insert(totals.flush_exec_s.end(),
                             replayer.flush_exec_s.begin(),
                             replayer.flush_exec_s.end());
  if (totals.timer.reps == 1) {
    totals.first_latency = replayer.latency;
    totals.first_fingerprint = replayer.fingerprint;
  } else if (replayer.fingerprint != totals.first_fingerprint) {
    report.Violation("repeated replay of the same stream completed differently");
  }
}

void ReportServiceEndToEnd(const ServiceTotals& totals, Report& report) {
  report.attempted += totals.terminal;
  report.failed += totals.failures;
  report.E2e("setup_s", Quantile(totals.setup_s, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.E2e("ok_frac",
             1.0 - static_cast<double>(totals.failures) /
                       static_cast<double>(std::max<uint64_t>(1, totals.terminal)),
             "ratio");
  report.E2e("ops_per_s", Quantile(totals.ops_per_s, 0.5), "ops/s");
  report.E2e("user_mb_per_s", Quantile(totals.user_mb_per_s, 0.5), "MB/s");
  report.E2e("sim_ttlb_p50_s", totals.first_latency.Percentile(0.5), "s");
  report.E2e("sim_ttlb_p99_s", totals.first_latency.Percentile(0.99), "s");
  report.notes.emplace_back("reps", std::to_string(totals.timer.reps));
  report.notes.emplace_back("rep_ops_per_s", JoinValues(totals.ops_per_s));
  report.notes.emplace_back("ttlb_samples",
                            std::to_string(totals.first_latency.count()));
  report.notes.emplace_back("read_exec_samples",
                            std::to_string(totals.read_exec_s.size()));
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Layer metrics every service workload reports, from the traced pass's last
// repetition plus the spans of all repetitions.
struct LastRep {
  silica::FrontEnd::Counters counters;
  DecodeCounts decode;
  uint64_t platters_added = 0;
  double timed_s = 0.0;
  uint64_t user_bytes = 0;
  uint64_t stored_user_bytes = 0;  // archived at set-up + committed
  uint64_t glass_reads = 0, degraded_reads = 0, gets = 0;
  uint64_t stored_platters = 0;
};

void ReportServiceLayers(const ServiceTotals& totals, const LastRep& last,
                         const IsolationTimes& iso, const SpanRecorder& spans,
                         const std::vector<int>& idle_pumps, double archive_build_s,
                         uint64_t platter_capacity, Report& report) {
  const auto& c = last.counters;
  std::vector<double> idle;
  {
    const auto self = SelfTimes(spans.spans());
    for (int i : idle_pumps) {
      idle.push_back(self[static_cast<size_t>(i)]);
    }
  }
  report.Layer("workload.gen_s",
               spans.TotalSelf("workload.gen") / std::max(1, totals.timer.reps), "s");
  report.Layer("frontend.submit_us_p50",
               Quantile(spans.SelfTimesOf("frontend.SubmitEncoded"), 0.5) * 1e6,
               "us");
  report.Layer("frontend.idle_pump_us_p50", Quantile(idle, 0.5) * 1e6, "us");
  report.Layer("frontend.rejected_frac",
               Ratio(static_cast<double>(c.rejected), static_cast<double>(c.submitted)),
               "ratio");
  report.Layer("frontend.reads_per_mount",
               Ratio(static_cast<double>(c.reads_executed),
                     static_cast<double>(c.platter_mounts)),
               "ratio");
  report.Layer("frontend.writes_per_flush",
               Ratio(static_cast<double>(c.writes_executed),
                     static_cast<double>(c.flushes)),
               "ratio");
  report.Layer("frontend.staged_read_hit_frac",
               Ratio(static_cast<double>(c.staged_read_hits),
                     static_cast<double>(last.gets)),
               "ratio");
  report.Layer("frontend.read_exec_ms_p50", Quantile(totals.read_exec_s, 0.5) * 1e3,
               "ms");
  report.Layer("frontend.read_exec_ms_p99", Quantile(totals.read_exec_s, 0.99) * 1e3,
               "ms");
  report.Layer("frontend.read_exec_samples",
               static_cast<double>(totals.read_exec_s.size()), "count");
  report.Layer("service.flush_exec_ms_p50", Quantile(totals.flush_exec_s, 0.5) * 1e3,
               "ms");
  report.Layer("service.flush_retries", static_cast<double>(c.write_retries), "count");
  report.Layer("service.platters_per_flush",
               Ratio(static_cast<double>(last.platters_added),
                     static_cast<double>(c.flushes)),
               "ratio");
  report.Layer("service.archive_build_s", archive_build_s, "s");
  report.Layer("service.degraded_read_frac",
               Ratio(static_cast<double>(last.degraded_reads),
                     static_cast<double>(last.glass_reads)),
               "ratio");
  report.Layer("service.stored_per_user_byte",
               Ratio(static_cast<double>(last.stored_platters * platter_capacity),
                     static_cast<double>(last.stored_user_bytes)),
               "ratio");
  const DecodeCounts& d = last.decode;
  report.Layer("dataplane.sectors_per_user_kb",
               Ratio(d.sectors_read, static_cast<double>(last.user_bytes) / 1024.0),
               "ratio");
  report.Layer("dataplane.ldpc_failure_frac", Ratio(d.ldpc_failures, d.sectors_read),
               "ratio");
  report.Layer("dataplane.platters_verified", d.platters_verified, "count");
  report.Layer("dataplane.nc_recoveries", d.nc_recoveries, "count");
  report.Layer("dataplane.set_recoveries", d.set_recoveries, "count");
  report.Layer("dataplane.recovery_reads_per_degraded_read",
               Ratio(d.recovery_reads, static_cast<double>(last.degraded_reads)),
               "ratio");
  report.Layer("dataplane.write_platter_ms", iso.write_platter_s * 1e3, "ms");
  report.Layer("dataplane.verify_platter_ms", iso.verify_platter_s * 1e3, "ms");
  report.Layer("dataplane.encode_set_ms", iso.encode_set_s * 1e3, "ms");
  report.Layer("dataplane.read_file_ms", iso.read_file_s * 1e3, "ms");
  report.Layer("dataplane.recover_track_ms", iso.recover_track_s * 1e3, "ms");
  // Calls x per-call time over the timed wall of the same repetition. Info
  // and filler platters are written one by one; EncodeRedundancyPlatters
  // writes the redundancy platters of a set itself.
  const double sets =
      static_cast<double>(last.platters_added / (kSetInfo + kSetRedundancy));
  const double info_platters = sets * kSetInfo;
  const double plain_reads =
      static_cast<double>(last.glass_reads - last.degraded_reads);
  const double explained =
      info_platters * iso.write_platter_s +
      d.platters_verified * iso.verify_platter_s +
      sets * iso.encode_set_s +
      plain_reads * iso.read_file_s +
      static_cast<double>(last.degraded_reads) * iso.recover_track_s;
  report.Layer("dataplane.host_share", Ratio(explained, last.timed_s), "ratio");
}

// One repetition, set up and ready for its timed phase.
struct ServiceRep {
  std::unique_ptr<silica::Telemetry> telemetry;  // traced runs only
  std::unique_ptr<silica::SilicaService> service;
  std::unique_ptr<silica::FrontEnd> frontend;
  Stream stream;
  std::unordered_set<uint64_t> unavailable;  // platters marked unavailable
  uint64_t archived_bytes = 0;               // user bytes written at set-up
  double archive_build_s = 0.0;
};

// Repeats set-up and timed replay until the timed phases add up to
// --seconds, checking every repetition, then reports. `setup` builds one
// repetition; its wall time is that repetition's set-up time.
template <typename Setup>
void RunServiceWorkload(const Options& options, SpanRecorder& spans,
                        Report& report, Setup&& setup) {
  ServiceTotals totals;
  totals.timer.target_s = options.seconds;
  LastRep last;
  std::vector<int> idle_pumps;
  std::vector<double> archive_build_s;
  IsolationTimes iso;
  uint64_t capacity = 0;
  while (totals.timer.more()) {
    // Every set-up builds the LDPC code from scratch, as a fresh process
    // does, instead of finding the previous repetition's in the cache.
    silica::LdpcCode::ClearBuildCache();
    const double setup_start = Now();
    ServiceRep rep = setup();
    const double setup_s = Now() - setup_start;
    silica::SilicaService& service = *rep.service;
    capacity = service.data_plane().geometry().payload_bytes_per_platter();
    archive_build_s.push_back(rep.archive_build_s);

    Replayer replayer(*rep.frontend, service, rep.stream, rep.unavailable, spans,
                  report);
    const DecodeCounts decode_before = ReadDecodeCounters(rep.telemetry.get());
    const uint64_t platters_before = service.platters_in_library();
    const double t0 = Now();
    for (size_t i = 0; i < rep.stream.ops.size(); ++i) {
      replayer.Pump(rep.stream.ops[i].time);
      replayer.Submit(i, rep.stream.ops[i].time);
    }
    replayer.Drain(rep.stream.ops.back().time);
    const double timed_s = Now() - t0;

    CheckConservation(*rep.frontend, replayer, rep.stream.ops.size(), report);
    AddRep(totals, replayer, setup_s, timed_s, report);
    idle_pumps.insert(idle_pumps.end(), replayer.idle_pump_spans.begin(),
                      replayer.idle_pump_spans.end());
    last.counters = rep.frontend->counters();
    last.decode = Minus(ReadDecodeCounters(rep.telemetry.get()), decode_before);
    last.platters_added = service.platters_in_library() - platters_before;
    last.stored_platters = service.platters_in_library();
    last.timed_s = timed_s;
    last.user_bytes = replayer.committed_bytes + replayer.returned_bytes;
    last.stored_user_bytes = rep.archived_bytes + replayer.committed_bytes;
    last.glass_reads = replayer.glass_reads;
    last.degraded_reads = replayer.degraded_reads;
    last.gets = replayer.gets;
    if (spans.enabled() && !totals.timer.more()) {
      iso = TimeDataPlane(service.data_plane(), options.seed, spans, report);
    }
  }
  ReportServiceEndToEnd(totals, report);
  if (spans.enabled()) {
    ReportServiceLayers(totals, last, iso, spans, idle_pumps,
                        Quantile(archive_build_s, 0.5), capacity, report);
  }
}

struct Archive {
  Stream stream;  // the archived objects, then the timed Get stream
  std::vector<std::vector<uint32_t>> flush_groups;  // object indices per Flush
  std::vector<uint32_t> by_rank;  // object index by popularity rank
};

// The archived objects, in flush groups that each fill one 4+2 platter set.
// Popularity ranks are a seeded permutation of the objects, and the object of
// rank r always has the r-th scenario size, so the bytes the Zipf stream
// returns do not hinge on which sizes the seed made popular.
Archive GenerateArchive(uint64_t seed, uint64_t platter_capacity) {
  silica::Rng rng(seed * 0x9e3779b97f4a7c15ull + 23);
  const std::vector<uint32_t> sizes = ScenarioSizes(kRecallObjects);
  Archive archive;
  archive.by_rank.resize(kRecallObjects);
  std::iota(archive.by_rank.begin(), archive.by_rank.end(), 0u);
  Shuffle(archive.by_rank, rng);
  std::vector<uint32_t> rank_of(kRecallObjects);
  for (uint32_t r = 0; r < kRecallObjects; ++r) {
    rank_of[archive.by_rank[r]] = r;
  }
  archive.flush_groups.emplace_back();
  uint64_t bytes = 0;
  for (size_t i = 0; i < kRecallObjects; ++i) {
    const auto tenant = static_cast<uint64_t>(rng.UniformInt(0, kRecallTenants - 1));
    Object object = MakeObject(rng, tenant, i, sizes[rank_of[i]]);
    if (bytes + object.size > platter_capacity * kSetInfo * 85 / 100) {
      archive.flush_groups.emplace_back();
      bytes = 0;
    }
    bytes += object.size;
    archive.flush_groups.back().push_back(static_cast<uint32_t>(i));
    archive.stream.objects.push_back(std::move(object));
  }
  return archive;
}

// Runs once the archive is built, because it needs the platter layout: marks
// one platter unavailable in each of kDegradedSets seeded platter sets, then
// draws the Get stream. kDegradedShare of the Gets read an object on an
// unavailable platter and the rest one on an available platter, choosing
// within that class by Zipf popularity over the archive's ranks, so the
// degraded share does not depend on where the popular objects landed.
std::unordered_set<uint64_t> DegradeAndDrawGets(silica::SilicaService& service,
                                                Archive& archive, uint64_t seed,
                                                SpanRecorder& spans) {
  silica::Rng rng(seed * 0x9e3779b97f4a7c15ull + 29);
  const auto& objects = archive.stream.objects;
  std::vector<uint64_t> platter(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    platter[i] = service.metadata().Lookup(objects[i].name)->platter_id;
  }
  std::vector<size_t> sets(archive.flush_groups.size());
  std::iota(sets.begin(), sets.end(), size_t{0});
  Shuffle(sets, rng);
  std::unordered_set<uint64_t> unavailable;
  for (size_t k = 0; k < std::min(kDegradedSets, sets.size()); ++k) {
    const auto& group = archive.flush_groups[sets[k]];
    const uint64_t p = platter[group[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(group.size()) - 1))]];
    ScopedSpan s(spans, "service.MarkUnavailable");
    service.MarkUnavailable(p);
    unavailable.insert(p);
  }

  const std::vector<uint32_t>& by_rank = archive.by_rank;
  std::vector<double> cdf(by_rank.size());
  double sum = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kRecallZipfS);
    cdf[r] = sum;
  }
  // Exactly kDegradedShare of the Gets, at seeded positions: recovery reads
  // cost many plain reads, so their number must not vary with the seed.
  std::vector<char> degraded_at(kRecallGets, 0);
  std::fill_n(degraded_at.begin(),
              static_cast<size_t>(std::lround(kDegradedShare * kRecallGets)), 1);
  Shuffle(degraded_at, rng);
  double t = 0.0;
  for (size_t i = 0; i < kRecallGets; ++i) {
    t += rng.Exponential(kRecallRatePerS);
    const bool degraded = degraded_at[i] != 0;
    uint32_t object = 0;
    do {
      const auto rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble() * sum) -
          cdf.begin());
      object = by_rank[std::min(rank, by_rank.size() - 1)];
    } while ((unavailable.count(platter[object]) != 0) != degraded);
    archive.stream.ops.push_back(Op{OpType::kGet, object, t});
  }
  EncodeWires(archive.stream);
  return unavailable;
}

}  // namespace

void RunIngest(const Options& options, SpanRecorder& spans, Report& report) {
  RunServiceWorkload(options, spans, report, [&] {
    ServiceRep rep;
    {
      ScopedSpan s(spans, "workload.gen");
      rep.stream = GenerateIngest(options.seed);
    }
    ScopedSpan s(spans, "service.construct");
    rep.service = std::make_unique<silica::SilicaService>(MakeServiceConfig(options));
    if (spans.enabled()) {
      rep.telemetry = std::make_unique<silica::Telemetry>();
    }
    rep.frontend = std::make_unique<silica::FrontEnd>(
        *rep.service, MakeFrontEndConfig(*rep.service), rep.telemetry.get());
    return rep;
  });
}

void RunRecall(const Options& options, SpanRecorder& spans, Report& report) {
  RunServiceWorkload(options, spans, report, [&] {
    ServiceRep rep;
    {
      ScopedSpan s(spans, "service.construct");
      rep.service = std::make_unique<silica::SilicaService>(MakeServiceConfig(options));
      if (spans.enabled()) {
        rep.telemetry = std::make_unique<silica::Telemetry>();
        rep.service->SetTelemetry(rep.telemetry.get());
      }
    }
    Archive archive;
    {
      ScopedSpan s(spans, "workload.gen");
      archive = GenerateArchive(
          options.seed, rep.service->data_plane().geometry().payload_bytes_per_platter());
    }
    const double build_start = Now();
    {
      ScopedSpan s(spans, "service.archive_build");
      for (const auto& group : archive.flush_groups) {
        for (uint32_t object : group) {
          const Object& o = archive.stream.objects[object];
          rep.service->Put(o.name, o.tenant, Payload(o.content_seed, o.size));
          rep.archived_bytes += o.size;
        }
        ScopedSpan f(spans, "service.Flush");
        if (rep.service->Flush().files_committed != group.size()) {
          report.Violation("archive flush left files in staging");
        }
      }
    }
    rep.archive_build_s = Now() - build_start;
    {
      ScopedSpan s(spans, "workload.gen");
      rep.unavailable = DegradeAndDrawGets(*rep.service, archive, options.seed, spans);
    }
    rep.stream = std::move(archive.stream);
    ScopedSpan s(spans, "frontend.construct");
    rep.frontend = std::make_unique<silica::FrontEnd>(
        *rep.service, MakeFrontEndConfig(*rep.service), rep.telemetry.get());
    return rep;
  });
}

}  // namespace perfbench
