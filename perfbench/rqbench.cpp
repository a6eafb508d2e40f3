// rqbench: host cost of PIRA/MIRA range queries on three workloads, with an
// outside-in per-layer ladder. See README.md in this directory for the
// workload table, the metric tables and the layer -> end-to-end map.
//
//   rqbench --workload <pira_fanout|pira_point_rw|mira_queued> --seed <n>
//           --seconds <s> --trace <0|1> [--tiny] [--commit <sha>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that yields the per-layer metrics. Every layer is
// measured from outside, only by calling and timing public functions of the
// kautz, fissione, armada, net, sim and obs modules. Host time is
// per-thread CPU time, per operation the least over the run's passes (see
// RunState); wall time is printed beside it.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; earlier lines ("META", "SIM", "WALL", "LADDER") are
// informational. The SIM line holds the exact simulated metrics of the
// run's fixed query prefix in both modes, so a traced and an untraced run of
// one seed can be compared digit for digit.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "armada/armada.h"
#include "armada/frt_search.h"
#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "kautz/partition_tree.h"
#include "net/queueing.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace {

using armada::core::ArmadaIndex;
using armada::core::FrtSearch;
using armada::core::FrtSearchClass;
using armada::core::RangeQueryResult;
using armada::fissione::FissioneNetwork;
using armada::fissione::PeerId;
using armada::kautz::Box;
using armada::kautz::KautzRegion;
using armada::kautz::KautzString;
namespace net = armada::net;
namespace obs = armada::obs;
namespace sim = armada::sim;
namespace fissione = armada::fissione;

// ---------------------------------------------------------------------------
// Clocks, RNG, statistics
// ---------------------------------------------------------------------------

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent input streams derived from the one workload seed.
enum Stream : std::uint64_t {
  kOverlayStream = 0,
  kObjectStream = 1,
  kQueryStream = 2,
  kWarmupStream = 3,
  kWriteStream = 4,
  kOverheadStream = 5,
  kRouteStream = 6,
};

std::uint64_t stream_seed(std::uint64_t seed, Stream s) {
  return splitmix64(splitmix64(seed) ^ (static_cast<std::uint64_t>(s) << 32));
}

/// The benchmark's own generator: std::mt19937_64 is fully specified by the
/// standard, and the conversions below are explicit, so one seed gives the
/// same inputs on every platform and commit.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : gen_(seed) {}
  double uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(gen_() % n); }

 private:
  std::mt19937_64 gen_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kPira, kMira };

struct Spec {
  std::string name;
  Kind kind = Kind::kPira;
  std::size_t peers = 0;
  std::size_t objects = 0;
  /// PIRA: range width on [0, 1000]; MIRA: box side on [0, 1]^2.
  double width = 0.0;
  /// Queries every run completes: the fixed prefix the SIM metrics and the
  /// traced run cover. MIRA: one open-loop round of this many injections.
  std::size_t prefix = 0;
  /// Untraced runs measure the same operations in this many passes, each
  /// on a freshly built system (see RunState).
  int passes = 1;
  /// Timed builds per run, spread over the passes (setup_s = median).
  int setups = 1;
  std::size_t warmup = 0;    ///< uncounted queries before timing starts
  bool interleaved_writes = false;  ///< pira_point_rw's write mix
  /// Write probe on workloads without their own writes: publishes and
  /// join/leave operations (0 = no probe).
  std::size_t probe_publishes = 0;
  std::size_t probe_memberships = 0;
  std::size_t overhead_queries = 0;  ///< per tracing-overhead repetition
};

constexpr double kPiraDomain = 1000.0;
/// pira_point_rw: after every kWriteEvery queries, kWriteEvery publishes
/// and one membership operation (join and leave alternate, N stays fixed).
constexpr std::size_t kWriteEvery = 8;

Spec make_spec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "pira_fanout") {
    s.kind = Kind::kPira;
    s.width = 150.0;
    s.peers = tiny ? 300 : 2000;
    s.objects = tiny ? 600 : 4000;
    s.prefix = tiny ? 40 : 1000;
    s.passes = 2;
    s.setups = tiny ? 2 : 24;
    s.warmup = tiny ? 4 : 40;
    s.probe_publishes = tiny ? 40 : 4000;
    s.probe_memberships = tiny ? 80 : 24000;
    s.overhead_queries = tiny ? 8 : 48;
  } else if (name == "pira_point_rw") {
    s.kind = Kind::kPira;
    s.width = 0.1;
    s.peers = tiny ? 2000 : 100000;
    s.objects = tiny ? 4000 : 200000;
    s.prefix = tiny ? 64 : 16000;
    s.passes = 2;
    s.setups = tiny ? 2 : 3;
    s.warmup = tiny ? 8 : 400;
    s.interleaved_writes = true;
    s.overhead_queries = tiny ? 16 : 600;
  } else if (name == "mira_queued") {
    s.kind = Kind::kMira;
    s.width = 0.05;
    s.peers = tiny ? 500 : 10000;
    s.objects = tiny ? 1000 : 20000;
    s.prefix = tiny ? 100 : 2000;
    s.passes = tiny ? 2 : 4;
    s.setups = tiny ? 2 : 9;
    s.warmup = tiny ? 20 : 200;
    s.probe_publishes = tiny ? 40 : 4000;
    s.probe_memberships = tiny ? 80 : 24000;
    s.overhead_queries = tiny ? 20 : 300;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (pira_fanout, pira_point_rw, mira_queued)");
  }
  return s;
}

/// bench_congestion's closed-loop goodput configuration: strict priority,
/// linear backlog backoff, admission limit 12.
net::QueueingConfig mira_queueing() {
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.link_bandwidth = 1024.0;
  cfg.default_message_bytes = 256;
  cfg.coalesce_window = 0.05;
  cfg.scheduling = net::QueueingConfig::Scheduling::kStrict;
  cfg.flow.backoff_threshold = 4;
  cfg.flow.backoff = 0.5;
  cfg.flow.admission_limit = 12;
  return cfg;
}

/// Open-loop injection gap in simulated time: 0.5 * 4 log2 N / N.
double mira_gap(std::size_t peers) {
  const double n = static_cast<double>(peers);
  return 0.5 * 4.0 * std::log2(n) / n;
}

/// One overlay with its index. Members are initialised from the factories'
/// prvalues, so neither object is ever moved (ArmadaIndex holds references
/// into the network).
struct System {
  FissioneNetwork net;
  ArmadaIndex index;
  System(const Spec& spec, std::uint64_t seed)
      : net(FissioneNetwork::build_snapshot(spec.peers,
                                            stream_seed(seed, kOverlayStream),
                                            FissioneNetwork::Config{})),
        index(spec.kind == Kind::kPira
                  ? ArmadaIndex::single(net, {0.0, kPiraDomain})
                  : ArmadaIndex::multi(net, Box{{0.0, 1.0}, {0.0, 1.0}})) {}
};

/// Ordered ground truth for PIRA answers: value -> handle. Equal to
/// ArmadaIndex::scan_matches (a full scan) by construction; the runs
/// cross-check the two on a sample of queries.
class ValueOracle {
 public:
  void add(double value, std::uint64_t handle) { by_value_.emplace(value, handle); }
  std::vector<std::uint64_t> matches(double lo, double hi) const {
    std::vector<std::uint64_t> out;
    for (auto it = by_value_.lower_bound(lo);
         it != by_value_.end() && it->first <= hi; ++it) {
      out.push_back(it->second);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::multimap<double, std::uint64_t> by_value_;
};

/// Overlay build, initial publishes and (mira_queued) queueing install:
/// the work setup_s prices.
std::unique_ptr<System> build_system(const Spec& spec, std::uint64_t seed) {
  Rand objects(stream_seed(seed, kObjectStream));
  auto sys = std::make_unique<System>(spec, seed);
  if (spec.kind == Kind::kPira) {
    for (std::size_t i = 0; i < spec.objects; ++i) {
      sys->index.publish(objects.uniform(0.0, kPiraDomain));
    }
  } else {
    for (std::size_t i = 0; i < spec.objects; ++i) {
      const double x = objects.uniform();
      const double y = objects.uniform();
      sys->index.publish(std::vector<double>{x, y});
    }
    sys->net.install_queueing(mira_queueing());
  }
  return sys;
}

struct Setup {
  std::unique_ptr<System> sys;
  /// Identical copy that takes the write probe, so the measured system
  /// stays read-only (pira_fanout, mira_queued); null otherwise.
  std::unique_ptr<System> probe;
  ValueOracle oracle;
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
};

/// Builds the system `times` times, timing each build and keeping the last.
/// The probe copy and the oracle (the benchmark's own) are built untimed;
/// the oracle only `with_oracle`.
Setup make_setup(const Spec& spec, std::uint64_t seed, int times,
                 bool with_oracle) {
  Setup out;
  for (int rep = 0; rep < times; ++rep) {
    out.sys.reset();
    const double c0 = cpu_now();
    const double w0 = wall_now();
    out.sys = build_system(spec, seed);
    out.setup_cpu.push_back(cpu_now() - c0);
    out.setup_wall.push_back(wall_now() - w0);
  }
  if (spec.probe_publishes > 0) {
    out.probe = build_system(spec, seed);
  }
  if (spec.kind == Kind::kPira && with_oracle) {
    for (std::uint64_t h = 0; h < spec.objects; ++h) {
      out.oracle.add(out.sys->index.attributes(h)[0], h);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------------

/// A query's answer is correct when `done` fired exactly once, its delay is
/// within |PeerID(issuer)| hops, and its matches equal the ground truth at
/// coverage 1 or form a duplicate-free subset of it below coverage 1.
bool answer_ok(const RangeQueryResult& r, const std::vector<std::uint64_t>& truth,
               std::size_t issuer_len, int done_calls) {
  if (done_calls != 1) {
    return false;
  }
  if (r.stats.delay > static_cast<double>(issuer_len)) {
    return false;
  }
  std::vector<std::uint64_t> got = r.matches;
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return false;
  }
  if (r.stats.coverage >= 1.0) {
    return got == truth;
  }
  return std::includes(truth.begin(), truth.end(), got.begin(), got.end());
}

bool same_answer(const RangeQueryResult& a, const RangeQueryResult& b) {
  return a.stats == b.stats && a.destinations == b.destinations &&
         a.matches == b.matches;
}

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void op(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

/// Exact simulated metrics of the fixed query prefix.
struct SimAcc {
  std::vector<double> messages, delay, latency, coverage;
  void add(const sim::QueryStats& s) {
    messages.push_back(static_cast<double>(s.messages));
    delay.push_back(s.delay);
    latency.push_back(s.latency);
    coverage.push_back(s.coverage);
  }
};

struct WriteAcc {
  std::vector<double> publish_cpu;
  std::vector<double> join_cpu, leave_cpu;  ///< alternating, join first
  double rewired = 0.0;
  double handoff_objects = 0.0;
};

/// Per-layer sums of the traced run.
struct LayerAcc {
  std::uint64_t queries = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;  ///< real simulator events of the plain run
  std::uint64_t max_batch = 0;
  // kautz
  std::uint64_t region_tests = 0, box_tests = 0;
  std::uint64_t viable_calls = 0, viable_true = 0;
  double region_replay_s = 0.0, box_replay_s = 0.0;
  std::uint64_t region_replayed = 0, box_replayed = 0;
  double naming_s = 0.0;
  // armada
  double dispatch_s = 0.0, drain_s = 0.0, scan_s = 0.0;
  std::uint64_t scanned = 0, matched = 0;
  std::uint64_t rerun_mismatches = 0;
  // sim / net replays
  double sim_replay_s = 0.0;
  std::uint64_t sim_replay_events = 0;
  double net_replay_s = 0.0;
  std::uint64_t net_replay_messages = 0;
  std::uint64_t replay_mismatches = 0;
  double shed = 0.0;  ///< QueryStats::shed summed
  double queue_delay_mean = 0.0, utilization = 0.0, egress_peak = 0.0;
  // obs and routing probes (end of the run)
  std::uint64_t spans = 0, roots = 0;
  double traced_vs_off = 0.0, unsampled_vs_off = 0.0;
  double route_us = 0.0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Benchmark-owned FRT re-run: classes built the way pira.cpp / mira.cpp
// build them, with counting viable wrappers and a timed destination scan.
// ---------------------------------------------------------------------------

/// One recorded test and its outcome; the timing replay must reproduce it.
struct RegionCall {
  const std::vector<KautzRegion>* subs;
  std::uint32_t sub;
  KautzString label;
  bool outcome;
};

struct BoxCall {
  const Box* box;
  KautzString label;
  bool outcome;
};

/// Bound on recorded calls kept for the timing replays (counts are exact).
constexpr std::size_t kMaxLoggedCalls = 400000;

/// State of one re-run query; must outlive its search and the replays.
struct RerunQuery {
  std::vector<KautzRegion> subs;
  Box box;  ///< MIRA only
  std::optional<KautzRegion> region;
};

struct Rerun {
  LayerAcc* acc;
  std::vector<RegionCall> region_log;
  std::vector<BoxCall> box_log;
  std::vector<RerunQuery> round;  ///< MIRA: the round's queries
};

/// The re-run's destination scan: keeps the objects `keep` accepts, counts
/// scanned and matched objects, and times the whole call.
template <typename Keep>
void timed_scan(LayerAcc& acc, const fissione::StoreView& view,
                RangeQueryResult& out, Keep&& keep) {
  const double t = cpu_now();
  view.for_each([&](const fissione::StoredObject& obj) {
    ++acc.scanned;
    if (keep(obj)) {
      out.matches.push_back(obj.payload);
      ++out.stats.results;
      ++acc.matched;
    }
  });
  acc.scan_s += cpu_now() - t;
}

std::vector<FrtSearchClass> pira_classes(Rerun& rr, RerunQuery& q) {
  std::vector<FrtSearchClass> classes;
  classes.reserve(q.subs.size());
  for (std::uint32_t i = 0; i < q.subs.size(); ++i) {
    FrtSearchClass cls;
    cls.com_t = q.subs[i].common_prefix();
    cls.viable = [&rr, &q, i](const KautzString& aligned) {
      ++rr.acc->region_tests;
      ++rr.acc->viable_calls;
      const bool ok = q.subs[i].intersects_prefix(aligned);
      if (rr.region_log.size() < kMaxLoggedCalls) {
        rr.region_log.push_back(RegionCall{&q.subs, i, aligned, ok});
      }
      rr.acc->viable_true += ok ? 1 : 0;
      return ok;
    };
    classes.push_back(std::move(cls));
  }
  return classes;
}

std::vector<FrtSearchClass> mira_classes(Rerun& rr, RerunQuery& q,
                                         const armada::kautz::PartitionTree& tree) {
  std::vector<FrtSearchClass> classes;
  classes.reserve(q.subs.size());
  for (std::uint32_t i = 0; i < q.subs.size(); ++i) {
    if (!tree.box_intersects(q.subs[i].common_prefix().prefix(1), q.box)) {
      continue;
    }
    FrtSearchClass cls;
    cls.com_t = q.subs[i].common_prefix();
    cls.viable = [&rr, &q, &tree, i](const KautzString& aligned) {
      ++rr.acc->viable_calls;
      ++rr.acc->region_tests;
      bool ok = q.subs[i].intersects_prefix(aligned);
      if (rr.region_log.size() < kMaxLoggedCalls) {
        rr.region_log.push_back(RegionCall{&q.subs, i, aligned, ok});
      }
      if (ok) {
        ++rr.acc->box_tests;
        ok = tree.box_intersects(aligned, q.box);
        if (rr.box_log.size() < kMaxLoggedCalls) {
          rr.box_log.push_back(BoxCall{&q.box, aligned, ok});
        }
      }
      rr.acc->viable_true += ok ? 1 : 0;
      return ok;
    };
    classes.push_back(std::move(cls));
  }
  return classes;
}

/// Replay the logged region and box tests in tight loops. Every replayed
/// answer must reproduce the recorded one; a differing answer counts as a
/// re-run mismatch.
void replay_tests(Rerun& rr, const armada::kautz::PartitionTree& tree) {
  LayerAcc& acc = *rr.acc;
  auto reps_for = [](std::size_t n) {
    return n == 0 ? 0 : std::max<std::size_t>(1, std::min<std::size_t>(20, 1000 / n));
  };
  std::uint64_t differing = 0;
  if (!rr.region_log.empty()) {
    const std::size_t reps = reps_for(rr.region_log.size());
    const double t0 = cpu_now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const RegionCall& c : rr.region_log) {
        differing += (*c.subs)[c.sub].intersects_prefix(c.label) != c.outcome;
      }
    }
    acc.region_replay_s += cpu_now() - t0;
    acc.region_replayed += reps * rr.region_log.size();
  }
  if (!rr.box_log.empty()) {
    const std::size_t reps = reps_for(rr.box_log.size());
    const double t0 = cpu_now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const BoxCall& c : rr.box_log) {
        differing += tree.box_intersects(c.label, *c.box) != c.outcome;
      }
    }
    acc.box_replay_s += cpu_now() - t0;
    acc.box_replayed += reps * rr.box_log.size();
  }
  acc.rerun_mismatches += differing;
  rr.region_log.clear();
  rr.box_log.clear();
}

// ---------------------------------------------------------------------------
// Span-tree replays (sim and net layers)
// ---------------------------------------------------------------------------

/// Replays recorded span trees through Simulator::schedule_at/run with
/// no-op closures: each span's event schedules its children at their
/// recorded delivery instants, in recorded order.
class SimReplay {
 public:
  explicit SimReplay(const std::vector<obs::Span>& spans) {
    at_.reserve(spans.size());
    children_.resize(spans.size());
    first_ = spans.empty() ? 0 : spans.front().id;
    for (const obs::Span& s : spans) {
      at_.push_back(s.parent == 0 ? s.send_at : s.deliver_at);
      if (s.parent == 0) {
        roots_.push_back(static_cast<std::uint32_t>(s.id - first_));
      } else {
        children_[s.parent - first_].push_back(
            static_cast<std::uint32_t>(s.id - first_));
      }
    }
  }

  /// Runs the replay on a fresh simulator; returns {cpu seconds, events}.
  std::pair<double, std::uint64_t> run() {
    sim::Simulator s;
    sim_ = &s;
    const double t0 = cpu_now();
    for (std::uint32_t r : roots_) {
      s.schedule_at(at_[r], Fire{this, r});
    }
    s.run();
    const double dt = cpu_now() - t0;
    sim_ = nullptr;
    return {dt, s.events_processed()};
  }

 private:
  struct Fire {
    SimReplay* self;
    std::uint32_t node;
    void operator()() const {
      for (std::uint32_t c : self->children_[node]) {
        self->sim_->schedule_at(self->at_[c], Fire{self, c});
      }
    }
  };

  std::uint64_t first_ = 0;
  std::vector<double> at_;
  std::vector<std::vector<std::uint32_t>> children_;
  std::vector<std::uint32_t> roots_;
  sim::Simulator* sim_ = nullptr;
};

/// Replays every recorded hop through Transport::deliver on a fresh
/// simulator and transport with the workload's queueing config, enqueued at
/// the recorded instant and in recorded send order, then drains the
/// simulator; counts delivery instants that differ from the recorded ones.
/// The same events scheduled directly with no-op closures form the
/// baseline, so the difference is the transport's own cost. Returns
/// {cpu seconds of replay minus baseline, messages}.
std::pair<double, std::uint64_t> net_replay(const std::vector<obs::Span>& spans,
                                            bool queueing,
                                            std::uint64_t* mismatches) {
  net::Transport transport;
  if (queueing) {
    transport.install_queueing(mira_queueing());
  }
  std::uint64_t n = 0;
  double replay_s = 0.0;
  {
    sim::Simulator s;
    const double t0 = cpu_now();
    for (const obs::Span& sp : spans) {
      if (sp.parent == 0) {
        continue;
      }
      const sim::Time at = transport.deliver(s, sp.from, sp.to, sp.bytes,
                                             net::Transport::QueuedArrival{},
                                             sp.enqueue_at, sp.cls);
      if (at != sp.deliver_at) {
        ++*mismatches;
      }
      ++n;
    }
    s.run();
    replay_s = cpu_now() - t0;
  }
  double base_s = 0.0;
  {
    sim::Simulator s;
    const double t0 = cpu_now();
    for (const obs::Span& sp : spans) {
      if (sp.parent != 0) {
        s.schedule_at(sp.deliver_at, [] {});
      }
    }
    s.run();
    base_s = cpu_now() - t0;
  }
  return {replay_s - base_s, n};
}

/// Largest number of deliveries recorded at one simulated instant.
std::uint64_t max_equal_time_batch(const std::vector<obs::Span>& spans) {
  std::vector<double> at;
  for (const obs::Span& s : spans) {
    if (s.parent != 0) {
      at.push_back(s.deliver_at);
    }
  }
  std::sort(at.begin(), at.end());
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < at.size();) {
    std::size_t j = i;
    while (j < at.size() && at[j] == at[i]) {
      ++j;
    }
    best = std::max<std::uint64_t>(best, j - i);
    i = j;
  }
  return best;
}

void replay_spans(LayerAcc& acc, const std::vector<obs::Span>& spans,
                  bool queueing) {
  acc.spans += spans.size();
  for (const obs::Span& s : spans) {
    acc.roots += s.parent == 0 ? 1 : 0;
  }
  acc.max_batch = std::max(acc.max_batch, max_equal_time_batch(spans));
  SimReplay replay(spans);
  const auto [sim_s, events] = replay.run();
  acc.sim_replay_s += sim_s;
  acc.sim_replay_events += events;
  const auto [net_s, msgs] = net_replay(spans, queueing, &acc.replay_mismatches);
  acc.net_replay_s += net_s;
  acc.net_replay_messages += msgs;
}

std::shared_ptr<obs::TraceRecorder> make_recorder(bool sample_all) {
  obs::TraceConfig cfg;
  cfg.sample_period =
      sample_all ? 1 : std::numeric_limits<std::uint64_t>::max();
  cfg.seed = 11;
  return std::make_shared<obs::TraceRecorder>(cfg);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

/// Timed writes on one system: publishes, and membership operations
/// alternating join and graceful leave of a random peer (join first, so N
/// returns to its start after every pair). With `report`, each membership
/// operation captures a MembershipReport for the fissione per-layer
/// metrics; capturing never changes the overlay or its RNG stream.
class Writer {
 public:
  Writer(System& sys, ValueOracle* oracle, Kind kind, std::uint64_t seed,
         bool report)
      : sys_(sys), oracle_(oracle), kind_(kind), rng_(seed), report_(report) {}

  /// Returns the publish's CPU seconds.
  double publish(WriteAcc& w, Failures& f) {
    double dt = 0.0;
    if (kind_ == Kind::kPira) {
      const double v = rng_.uniform(0.0, kPiraDomain);
      const double t0 = cpu_now();
      const std::uint64_t h = sys_.index.publish(v);
      dt = cpu_now() - t0;
      if (oracle_ != nullptr) {
        oracle_->add(v, h);
      }
    } else {
      const double x = rng_.uniform();
      const double y = rng_.uniform();
      const double t0 = cpu_now();
      sys_.index.publish(std::vector<double>{x, y});
      dt = cpu_now() - t0;
    }
    w.publish_cpu.push_back(dt);
    f.op(true);
    return dt;
  }

  /// Returns the operation's CPU seconds.
  double membership(WriteAcc& w, Failures& f) {
    FissioneNetwork& net = sys_.net;
    FissioneNetwork::MembershipReport rep;
    FissioneNetwork::MembershipReport* rp = report_ ? &rep : nullptr;
    const std::size_t before = net.num_peers();
    const bool join = join_next_;
    join_next_ = !join_next_;
    double dt = 0.0;
    if (join) {
      const double t0 = cpu_now();
      net.join(rp);
      dt = cpu_now() - t0;
      w.join_cpu.push_back(dt);
    } else {
      const std::vector<PeerId>& alive = net.alive_peers();
      const PeerId victim = alive[rng_.index(alive.size())];
      const double t0 = cpu_now();
      net.leave(victim, rp);
      dt = cpu_now() - t0;
      w.leave_cpu.push_back(dt);
      for (const auto& h : rep.handoffs) {
        w.handoff_objects += static_cast<double>(h.payloads.size());
      }
    }
    w.rewired += static_cast<double>(rep.rewired.size());
    f.op(net.num_peers() == (join ? before + 1 : before - 1));
    return dt;
  }

  void burst(std::size_t publishes, std::size_t memberships, WriteAcc& w,
             Failures& f) {
    for (std::size_t i = 0; i < publishes; ++i) {
      publish(w, f);
    }
    for (std::size_t i = 0; i < memberships; ++i) {
      membership(w, f);
    }
  }

 private:
  System& sys_;
  ValueOracle* oracle_;
  Kind kind_;
  Rand rng_;
  bool report_;
  bool join_next_ = true;
};

/// The write probe runs in this many bursts per pass, so its timings sample
/// the whole pass rather than one moment of it.
constexpr std::size_t kProbeBursts = 40;

/// Where the write probe's bursts fall in a pass. The first pass places
/// them by measured CPU time, one each time it crosses another
/// 1/kProbeBursts of its target; later passes run them after the same
/// operations, so every pass makes the same writes at the same points.
/// Bursts the first pass did not reach run at its end.
class ProbeSchedule {
 public:
  void rewind() { next_ = 0; }

  /// Runs the bursts due after `ops` operations of the pass, which has
  /// used `pass_cpu` of `target` CPU seconds.
  void due(Writer* probe, const Spec& spec, bool first, std::size_t ops,
           double pass_cpu, double target, WriteAcc& w, Failures& f) {
    if (probe == nullptr) {
      return;
    }
    if (first) {
      while (at_.size() < kProbeBursts &&
             pass_cpu >= static_cast<double>(at_.size() + 1) * target /
                             static_cast<double>(kProbeBursts)) {
        burst(probe, spec, ops, w, f);
      }
      return;
    }
    while (next_ < at_.size() && at_[next_] == ops) {
      burst(probe, spec, ops, w, f);
    }
  }

  /// Runs every burst still due at the end of a pass of `ops` operations.
  void finish(Writer* probe, const Spec& spec, bool first, std::size_t ops,
              WriteAcc& w, Failures& f) {
    due(probe, spec, first, ops, first ? 1.0 : 0.0, 0.0, w, f);
  }

 private:
  void burst(Writer* probe, const Spec& spec, std::size_t ops, WriteAcc& w,
             Failures& f) {
    probe->burst(spec.probe_publishes / kProbeBursts,
                 spec.probe_memberships / kProbeBursts, w, f);
    if (next_ == at_.size()) {
      at_.push_back(ops);
    }
    ++next_;
  }

  std::vector<std::size_t> at_;  ///< operations before each burst (first pass)
  std::size_t next_ = 0;
};

void check_overlay(const System& sys, Failures& f) {
  bool ok = true;
  try {
    sys.net.check_invariants();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_invariants failed: %s\n", e.what());
    ok = false;
  }
  f.op(ok);
}

// ---------------------------------------------------------------------------
// PIRA workloads
// ---------------------------------------------------------------------------

struct PiraQuery {
  PeerId issuer;
  double lo, hi;
};

PiraQuery draw_pira(Rand& rng, const FissioneNetwork& net, double width) {
  const std::vector<PeerId>& alive = net.alive_peers();
  PiraQuery q{};
  q.issuer = alive[rng.index(alive.size())];
  q.lo = rng.uniform(0.0, kPiraDomain - width);
  q.hi = q.lo + width;
  return q;
}

/// The PIRA benchmark's ObjectFilter: exact value check.
bool value_in(const ArmadaIndex& index, const fissione::StoredObject& obj,
              double lo, double hi) {
  const double v = index.attributes(obj.payload)[0];
  return v >= lo && v <= hi;
}

/// Traced step of one PIRA query: the traced original through
/// range_query_async (recorder attached, sample all), the plain untraced
/// run (dispatch / drain timing), the benchmark-owned FRT re-run, then the
/// test, sim and net replays. Returns the traced answer.
RangeQueryResult traced_pira_query(Setup& st, const PiraQuery& q,
                                   const std::shared_ptr<obs::TraceRecorder>& rec,
                                   LayerAcc& acc, int* done_calls) {
  FissioneNetwork& net = st.sys->net;
  ArmadaIndex& index = st.sys->index;

  RangeQueryResult traced;
  net.transport().attach_trace(rec);
  {
    sim::Simulator s;
    index.range_query_async(s, q.issuer, q.lo, q.hi,
                            [&](RangeQueryResult r) {
                              ++*done_calls;
                              traced = std::move(r);
                            });
    s.run();
  }
  net.transport().detach_trace();

  RangeQueryResult plain;
  {
    sim::Simulator s;
    const double t0 = cpu_now();
    index.range_query_async(s, q.issuer, q.lo, q.hi,
                            [&](RangeQueryResult r) { plain = std::move(r); });
    const double t1 = cpu_now();
    s.run();
    const double t2 = cpu_now();
    acc.dispatch_s += t1 - t0;
    acc.drain_s += t2 - t1;
    acc.events += s.events_processed();
  }

  Rerun rr{&acc, {}, {}, {}};
  RerunQuery rq;
  RangeQueryResult rerun;
  {
    const armada::kautz::PartitionTree& tree = index.naming_tree();
    const double t0 = cpu_now();
    rq.region = tree.region_for(q.lo, q.hi);
    rq.subs = rq.region->split_common_prefix();
    acc.naming_s += cpu_now() - t0;
    sim::Simulator s;
    const FrtSearch search(net);
    search.run_async(
        s, q.issuer, pira_classes(rr, rq),
        [&acc, &rq, &index, lo = q.lo, hi = q.hi](
            PeerId, const fissione::StoreView& view, RangeQueryResult& out) {
          timed_scan(acc, view, out, [&](const fissione::StoredObject& obj) {
            return rq.region->contains(obj.object_id) &&
                   value_in(index, obj, lo, hi);
          });
        },
        [&](RangeQueryResult r) { rerun = std::move(r); });
    s.run();
  }
  replay_tests(rr, index.naming_tree());
  if (!same_answer(traced, plain) || !same_answer(traced, rerun)) {
    ++acc.rerun_mismatches;
  }
  replay_spans(acc, rec->spans(), false);
  rec->clear();
  ++acc.queries;
  acc.messages += traced.stats.messages;
  return traced;
}

// ---------------------------------------------------------------------------
// MIRA workload
// ---------------------------------------------------------------------------

struct MiraQuery {
  PeerId issuer;
  Box box;
  std::size_t issuer_len;
};

std::vector<MiraQuery> draw_mira(Rand& rng, const FissioneNetwork& net,
                                 double side, std::size_t n) {
  std::vector<MiraQuery> out;
  out.reserve(n);
  const std::vector<PeerId>& alive = net.alive_peers();
  for (std::size_t i = 0; i < n; ++i) {
    MiraQuery q;
    q.issuer = alive[rng.index(alive.size())];
    const double x = rng.uniform(0.0, 1.0 - side);
    const double y = rng.uniform(0.0, 1.0 - side);
    q.box = Box{{x, x + side}, {y, y + side}};
    q.issuer_len = net.peer(q.issuer).peer_id.length();
    out.push_back(std::move(q));
  }
  return out;
}

bool point_in(const ArmadaIndex& index, const fissione::StoredObject& obj,
              const Box& box) {
  const std::vector<double>& p = index.attributes(obj.payload);
  for (std::size_t d = 0; d < box.size(); ++d) {
    if (p[d] < box[d].lo || p[d] > box[d].hi) {
      return false;
    }
  }
  return true;
}

enum class RoundMode { kTimed, kPlain, kRerun };

struct Round {
  std::vector<RangeQueryResult> results;
  std::vector<int> done;
  std::vector<double> slot_cpu;   ///< kTimed: CPU per injection slot
  std::vector<double> slot_wall;
  double dispatch_s = 0.0;        ///< kPlain: CPU inside query_async
  double run_s = 0.0;             ///< CPU of the whole round
  std::uint64_t events = 0;
  double elapsed = 0.0;           ///< simulated time at the end
};

/// One open-loop round on a fresh shared simulator: query i is injected at
/// i * gap. The queueing engine is re-installed first, so every round
/// starts from fresh congestion counters. kTimed calls `between` after each
/// slot, outside its timing, with the round's CPU so far and the slots done.
Round mira_round(Setup& st, const std::vector<MiraQuery>& qs, double gap,
                 RoundMode mode, Rerun* rr,
                 const std::function<void(double, std::size_t)>& between = {}) {
  FissioneNetwork& net = st.sys->net;
  ArmadaIndex& index = st.sys->index;
  net.install_queueing(mira_queueing());
  Round out;
  const std::size_t n = qs.size();
  out.results.resize(n);
  out.done.assign(n, 0);
  if (mode == RoundMode::kRerun) {
    rr->round.assign(n, RerunQuery{});
  }
  sim::Simulator s;
  const armada::core::Mira& mira = index.mira();
  const armada::kautz::PartitionTree& tree = index.naming_tree();
  for (std::size_t i = 0; i < n; ++i) {
    s.schedule_at(static_cast<double>(i) * gap, [&, i] {
      auto done = [&out, i](RangeQueryResult r) {
        ++out.done[i];
        out.results[i] = std::move(r);
      };
      const Box& box = qs[i].box;
      if (mode == RoundMode::kRerun) {
        RerunQuery& q = rr->round[i];
        const double t0 = cpu_now();
        q.box = box;
        q.region = tree.bounding_region(box);
        q.subs = q.region->split_common_prefix();
        rr->acc->naming_s += cpu_now() - t0;
        const FrtSearch search(net);
        LayerAcc& acc = *rr->acc;
        search.run_async(
            s, qs[i].issuer, mira_classes(*rr, q, tree),
            [&acc, &index, &tree, &q](PeerId, const fissione::StoreView& view,
                                      RangeQueryResult& res) {
              timed_scan(acc, view, res, [&](const fissione::StoredObject& obj) {
                return tree.box_intersects(obj.object_id, q.box) &&
                       point_in(index, obj, q.box);
              });
            },
            done);
        return;
      }
      const double t0 = mode == RoundMode::kPlain ? cpu_now() : 0.0;
      mira.query_async(
          s, qs[i].issuer, box,
          [&index, box](const fissione::StoredObject& obj) {
            return point_in(index, obj, box);
          },
          done);
      if (mode == RoundMode::kPlain) {
        out.dispatch_s += cpu_now() - t0;
      }
    });
  }
  const double c0 = cpu_now();
  if (mode == RoundMode::kTimed) {
    out.slot_cpu.reserve(n);
    double c = c0;
    double w = wall_now();
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n) {
        s.run_until(static_cast<double>(i) * gap);
      } else {
        s.run();
      }
      const double c1 = cpu_now();
      const double w1 = wall_now();
      out.slot_cpu.push_back(c1 - c);
      out.slot_wall.push_back(w1 - w);
      out.run_s += c1 - c;
      c = c1;
      w = w1;
      if (between) {
        between(out.run_s, i);
        c = cpu_now();
        w = wall_now();
      }
    }
  } else {
    s.run();
    out.run_s = cpu_now() - c0;
  }
  out.events = s.events_processed();
  out.elapsed = s.now();
  return out;
}

// ---------------------------------------------------------------------------
// Tracing overhead and routing probes (end of the traced run)
// ---------------------------------------------------------------------------

/// CPU of the same query list with the recorder off, attached but never
/// sampling, and sampling every query; interleaved repetitions, medians.
void measure_trace_overhead(Setup& st, const Spec& spec, std::uint64_t seed,
                            LayerAcc& acc) {
  FissioneNetwork& net = st.sys->net;
  ArmadaIndex& index = st.sys->index;
  Rand rng(stream_seed(seed, kOverheadStream));
  std::vector<PiraQuery> pq;
  std::vector<MiraQuery> mq;
  if (spec.kind == Kind::kPira) {
    for (std::size_t i = 0; i < spec.overhead_queries; ++i) {
      pq.push_back(draw_pira(rng, net, spec.width));
    }
  } else {
    mq = draw_mira(rng, net, spec.width, spec.overhead_queries);
  }
  std::vector<double> cpu[3];
  for (int rep = 0; rep < 5; ++rep) {
    for (int mode = 0; mode < 3; ++mode) {
      std::shared_ptr<obs::TraceRecorder> rec;
      if (mode > 0) {
        rec = make_recorder(mode == 2);
        net.transport().attach_trace(rec);
      }
      double t = 0.0;
      if (spec.kind == Kind::kPira) {
        const double t0 = cpu_now();
        for (const PiraQuery& q : pq) {
          sim::Simulator s;
          index.range_query_async(s, q.issuer, q.lo, q.hi,
                                  [](RangeQueryResult) {});
          s.run();
        }
        t = cpu_now() - t0;
      } else {
        t = mira_round(st, mq, mira_gap(net.num_peers()), RoundMode::kTimed,
                       nullptr)
                .run_s;
      }
      net.transport().detach_trace();
      cpu[mode].push_back(t);
    }
  }
  const double off = quantile(cpu[0], 0.5);
  acc.unsampled_vs_off = ratio(quantile(cpu[1], 0.5), off);
  acc.traced_vs_off = ratio(quantile(cpu[2], 0.5), off);
}

double route_us(Setup& st, const Spec& spec, std::uint64_t seed) {
  FissioneNetwork& net = st.sys->net;
  const armada::kautz::PartitionTree& tree = st.sys->index.naming_tree();
  Rand rng(stream_seed(seed, kRouteStream));
  const std::size_t n = 2000;
  std::vector<std::pair<PeerId, KautzString>> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId from = net.alive_peers()[rng.index(net.num_peers())];
    pairs.emplace_back(from, spec.kind == Kind::kPira
                                 ? tree.single_hash(rng.uniform(0.0, kPiraDomain))
                                 : tree.multiple_hash({rng.uniform(), rng.uniform()}));
  }
  std::uint64_t hops = 0;
  const double t0 = cpu_now();
  for (const auto& [from, id] : pairs) {
    hops += net.route(from, id).hops;
  }
  const double dt = cpu_now() - t0;
  return hops == 0 ? 0.0 : dt / static_cast<double>(n) * 1e6;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

struct RunOut {
  std::vector<Metric> metrics;
  Failures f;
  bool correct = true;
  SimAcc sim;
};

/// Hard stop for one run's measured phase, far inside the per-run limit.
constexpr double kMaxPhaseWall = 120.0;

/// CPU and wall time of each operation of one pass, in execution order.
struct PassTimes {
  std::vector<double> query_cpu, query_wall;  ///< MIRA: injection slots
  WriteAcc w;
};

/// Element-wise least of `best` and `next`; an empty `best` takes `next`.
void keep_least(std::vector<double>& best, const std::vector<double>& next) {
  if (best.empty()) {
    best = next;
    return;
  }
  if (best.size() != next.size()) {
    throw std::logic_error("passes timed different numbers of operations");
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], next[i]);
  }
}

void keep_least(PassTimes& best, const PassTimes& next) {
  keep_least(best.query_cpu, next.query_cpu);
  keep_least(best.query_wall, next.query_wall);
  keep_least(best.w.publish_cpu, next.w.publish_cpu);
  keep_least(best.w.join_cpu, next.w.join_cpu);
  keep_least(best.w.leave_cpu, next.w.leave_cpu);
}

/// Digest of an answer: later passes must reproduce the first pass's
/// answers, which were checked against the ground truth.
std::uint64_t digest(const RangeQueryResult& r) {
  std::uint64_t h = splitmix64(r.stats.messages);
  auto mix = [&h](std::uint64_t x) { h = splitmix64(h ^ x); };
  auto mix_double = [&mix](double d) {
    std::uint64_t x = 0;
    std::memcpy(&x, &d, sizeof x);
    mix(x);
  };
  mix_double(r.stats.delay);
  mix_double(r.stats.latency);
  mix_double(r.stats.coverage);
  mix(r.stats.shed);
  for (const PeerId& p : r.destinations) {
    mix(static_cast<std::uint64_t>(p));
  }
  mix(r.matches.size());
  for (std::uint64_t m : r.matches) {
    mix(m);
  }
  return h;
}

/// State shared by the passes of one run. An untraced run measures the
/// same operations in spec.passes passes spread over --seconds, each on a
/// freshly built system with its own warm-up; an operation's time is the
/// least of its passes'. The host's speed drifts by tens of percent over
/// seconds and a drift only ever slows an operation down, so the least of
/// several timings seconds apart reads the program's own cost. The traced
/// run is a single pass over the fixed prefix.
struct RunState {
  const Spec& spec;
  const Options& o;
  RunOut out;
  std::vector<double> setup_cpu, setup_wall;
  /// Queries (PIRA) or injection slots (MIRA) per pass, set by the first.
  std::size_t ops = 0;
  std::vector<std::uint64_t> answers;  ///< first pass's answer digests
  std::vector<std::uint64_t> messages;  ///< first pass's messages per query
  ProbeSchedule schedule;
  PassTimes best;
  double wall = 0.0;
  /// Peak RSS at the end of the first pass: set-up and measured phase.
  /// Later passes only reuse freed memory, more or less of it by chance.
  double rss = 0.0;

  double target() const { return o.seconds / spec.passes; }

  /// Records a query's answer in the first pass; in later passes, whether
  /// it matches the first pass's.
  bool same_as_first(bool first, std::size_t i, const RangeQueryResult& r) {
    if (first) {
      answers.push_back(digest(r));
      messages.push_back(r.stats.messages);
      return true;
    }
    return i < answers.size() && answers[i] == digest(r);
  }

  /// The pass's system; its timed builds are this pass's share of
  /// spec.setups, so set-up is timed at several moments of the run.
  Setup setup(int pass) {
    const int builds = spec.setups / spec.passes + (pass < spec.setups % spec.passes ? 1 : 0);
    Setup st = make_setup(spec, o.seed, o.trace ? 1 : std::max(builds, 1),
                          answers.empty());
    setup_cpu.insert(setup_cpu.end(), st.setup_cpu.begin(), st.setup_cpu.end());
    setup_wall.insert(setup_wall.end(), st.setup_wall.begin(), st.setup_wall.end());
    return st;
  }
};

double rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void sim_metrics(const SimAcc& s, std::vector<Metric>& m) {
  m.push_back({"sim_messages_per_query", mean_of(s.messages), "messages"});
  m.push_back({"sim_delay_mean", mean_of(s.delay), "hops"});
  m.push_back({"sim_latency_p99", quantile(s.latency, 0.99), "sim_time"});
  m.push_back({"sim_coverage_mean", mean_of(s.coverage), "fraction"});
}

/// Per-layer metrics shared by both query engines, from the traced sums.
void layer_metrics(const LayerAcc& a, const WriteAcc& w, std::vector<Metric>& m) {
  const double q = static_cast<double>(std::max<std::uint64_t>(a.queries, 1));
  const double region_ns = ratio(a.region_replay_s, static_cast<double>(a.region_replayed)) * 1e9;
  const double box_ns = ratio(a.box_replay_s, static_cast<double>(a.box_replayed)) * 1e9;
  const double dispatch_ns = ratio(a.sim_replay_s, static_cast<double>(a.sim_replay_events)) * 1e9;
  const double net_ns = ratio(a.net_replay_s, static_cast<double>(a.net_replay_messages)) * 1e9;
  const double region_per_q = static_cast<double>(a.region_tests) / q;
  const double box_per_q = static_cast<double>(a.box_tests) / q;
  const double events_per_q = static_cast<double>(a.events) / q;
  const double msgs_per_q = static_cast<double>(a.messages) / q;
  const double drain_us = a.drain_s / q * 1e6;
  const double scan_us = a.scan_s / q * 1e6;
  const double region_us = region_per_q * region_ns / 1e3;
  const double box_us = box_per_q * box_ns / 1e3;
  const double net_us = msgs_per_q * net_ns / 1e3;
  const double sim_us = events_per_q * dispatch_ns / 1e3;
  const double remainder = drain_us - region_us - box_us - scan_us - net_us - sim_us;

  m.push_back({"kautz.region_tests_per_query", region_per_q, "count"});
  m.push_back({"kautz.region_test_ns", region_ns, "ns"});
  m.push_back({"kautz.box_tests_per_query", box_per_q, "count"});
  m.push_back({"kautz.box_test_ns", box_ns, "ns"});
  m.push_back({"kautz.naming_us", a.naming_s / q * 1e6, "us"});
  m.push_back({"sim.events_per_query", events_per_q, "count"});
  m.push_back({"sim.events_per_message", ratio(events_per_q, msgs_per_q), "ratio"});
  m.push_back({"sim.max_equal_time_batch", static_cast<double>(a.max_batch), "count"});
  m.push_back({"sim.dispatch_ns_per_event", dispatch_ns, "ns"});
  m.push_back({"net.deliver_ns_per_message", net_ns, "ns"});
  m.push_back({"net.replay_mismatches", static_cast<double>(a.replay_mismatches), "count"});
  m.push_back({"net.queue_delay_mean", a.queue_delay_mean, "sim_time"});
  m.push_back({"net.shed_per_query", a.shed / q, "count"});
  m.push_back({"net.service_utilization", a.utilization, "fraction"});
  m.push_back({"net.egress_depth_peak", a.egress_peak, "count"});
  m.push_back({"armada.dispatch_us", a.dispatch_s / q * 1e6, "us"});
  m.push_back({"armada.drain_us", drain_us, "us"});
  m.push_back({"armada.scan_us", scan_us, "us"});
  m.push_back({"armada.objects_scanned_per_query", static_cast<double>(a.scanned) / q, "count"});
  m.push_back({"armada.match_ratio", ratio(static_cast<double>(a.matched), static_cast<double>(a.scanned)), "fraction"});
  m.push_back({"armada.viable_true_ratio", ratio(static_cast<double>(a.viable_true), static_cast<double>(a.viable_calls)), "fraction"});
  m.push_back({"armada.frt_remainder_us", remainder, "us"});
  m.push_back({"fissione.join_us_p50", quantile(w.join_cpu, 0.5) * 1e6, "us"});
  m.push_back({"fissione.leave_us_p50", quantile(w.leave_cpu, 0.5) * 1e6, "us"});
  m.push_back({"fissione.rewired_per_membership", ratio(w.rewired, static_cast<double>(w.join_cpu.size() + w.leave_cpu.size())), "count"});
  m.push_back({"fissione.handoff_objects_per_leave", ratio(w.handoff_objects, static_cast<double>(w.leave_cpu.size())), "count"});
  m.push_back({"fissione.route_us", a.route_us, "us"});
  m.push_back({"obs.spans_per_query", ratio(static_cast<double>(a.spans), static_cast<double>(a.roots)), "count"});
  m.push_back({"obs.traced_vs_off", a.traced_vs_off, "ratio"});
  m.push_back({"obs.attached_unsampled_vs_off", a.unsampled_vs_off, "ratio"});

  std::printf(
      "LADDER {\"drain_us\": %.3f, \"region_tests_us\": %.3f, "
      "\"box_tests_us\": %.3f, \"scan_us\": %.3f, \"net_us\": %.3f, "
      "\"sim_us\": %.3f, \"frt_remainder_us\": %.3f, "
      "\"rerun_mismatches\": %llu}\n",
      drain_us, region_us, box_us, scan_us, net_us, sim_us, remainder,
      static_cast<unsigned long long>(a.rerun_mismatches));
}

void print_wall(const RunState& rs, const std::vector<double>& query_wall,
                const WriteAcc& w) {
  std::printf(
      "WALL {\"setup_s\": %.6f, \"query_us_p50\": %.3f, \"query_us_p99\": "
      "%.3f, \"phase_s\": %.3f, \"queries\": %zu, \"passes\": %d}\n",
      quantile(rs.setup_wall, 0.5), quantile(query_wall, 0.5) * 1e6,
      quantile(query_wall, 0.99) * 1e6, rs.wall, rs.ops, rs.spec.passes);
  std::printf(
      "WRITES {\"publishes\": %zu, \"joins\": %zu, \"join_us_p50\": %.3f, "
      "\"join_us_p99\": %.3f, \"leaves\": %zu, \"leave_us_p50\": %.3f, "
      "\"leave_us_p99\": %.3f}\n",
      w.publish_cpu.size(), w.join_cpu.size(), quantile(w.join_cpu, 0.5) * 1e6,
      quantile(w.join_cpu, 0.99) * 1e6, w.leave_cpu.size(),
      quantile(w.leave_cpu, 0.5) * 1e6, quantile(w.leave_cpu, 0.99) * 1e6);
}

double sum_of(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) {
    total += x;
  }
  return total;
}

/// End of an untraced run: every end-to-end metric from the least times of
/// the passes, then the WALL and WRITES lines.
void e2e_metrics(RunState& rs) {
  const PassTimes& t = rs.best;
  const WriteAcc& w = t.w;
  std::vector<Metric>& m = rs.out.metrics;
  const double query_total = sum_of(t.query_cpu);
  // pira_point_rw's writes are part of its measured phase.
  const double phase_cpu =
      query_total + (rs.spec.interleaved_writes
                         ? sum_of(w.publish_cpu) + sum_of(w.join_cpu) + sum_of(w.leave_cpu)
                         : 0.0);
  std::uint64_t messages = 0;
  for (std::uint64_t x : rs.messages) {
    messages += x;
  }
  m.push_back({"setup_s", quantile(rs.setup_cpu, 0.5), "s"});
  m.push_back({"queries_per_s", ratio(static_cast<double>(rs.messages.size()), phase_cpu), "1/s"});
  m.push_back({"query_us_p50", quantile(t.query_cpu, 0.5) * 1e6, "us"});
  m.push_back({"query_us_p99", quantile(t.query_cpu, 0.99) * 1e6, "us"});
  m.push_back({"us_per_message", ratio(query_total, static_cast<double>(messages)) * 1e6, "us"});
  m.push_back({"publish_us_p50", quantile(w.publish_cpu, 0.5) * 1e6, "us"});
  // One membership cycle (a join and the following leave, which keeps N
  // fixed): joins and leaves cost an order of magnitude apart at 100k
  // peers, so a median over single operations would sit on the gap between
  // the two modes and jump between them from run to run.
  std::vector<double> cycles;
  for (std::size_t i = 0; i < std::min(w.join_cpu.size(), w.leave_cpu.size()); ++i) {
    cycles.push_back(w.join_cpu[i] + w.leave_cpu[i]);
  }
  m.push_back({"membership_us_p50", quantile(cycles, 0.5) * 1e6, "us"});
  m.push_back({"membership_us_p99", quantile(cycles, 0.99) * 1e6, "us"});
  m.push_back({"peak_rss_mb", rs.rss, "MiB"});
  sim_metrics(rs.out.sim, m);
  print_wall(rs, t.query_wall, w);
}

/// End of a traced run: the tracing-overhead and routing probes, the
/// re-run accounting, and the per-layer metrics.
void finish_traced(Setup& st, const Spec& spec, std::uint64_t seed,
                   LayerAcc& acc, const WriteAcc& w, RunOut& out) {
  measure_trace_overhead(st, spec, seed, acc);
  acc.route_us = route_us(st, spec, seed);
  out.f.failed += acc.rerun_mismatches;
  out.correct = acc.rerun_mismatches == 0 && acc.replay_mismatches == 0;
  layer_metrics(acc, w, out.metrics);
}

/// One pass of a PIRA workload on a freshly built system. The first pass
/// runs until its measured CPU reaches its share of --seconds and the
/// fixed prefix is done; later passes repeat its queries and writes, which
/// the same seed draws identically from identical systems.
PassTimes pira_pass(RunState& rs, int pass) {
  const Spec& spec = rs.spec;
  const Options& o = rs.o;
  const bool first = pass == 0;
  RunOut& out = rs.out;
  Setup st = rs.setup(pass);
  FissioneNetwork& net = st.sys->net;
  ArmadaIndex& index = st.sys->index;

  {
    Rand warm(stream_seed(o.seed, kWarmupStream));
    for (std::size_t i = 0; i < spec.warmup; ++i) {
      const PiraQuery q = draw_pira(warm, net, spec.width);
      index.range_query(q.issuer, q.lo, q.hi);
    }
  }

  Rand rng(stream_seed(o.seed, kQueryStream));
  const std::uint64_t write_seed = stream_seed(o.seed, kWriteStream);
  // pira_point_rw writes into the measured system; the others' write probe
  // goes to the identical probe copy.
  ValueOracle* oracle = first ? &st.oracle : nullptr;
  std::unique_ptr<Writer> writer =
      spec.interleaved_writes
          ? std::make_unique<Writer>(*st.sys, oracle, spec.kind, write_seed, o.trace)
          : nullptr;
  std::unique_ptr<Writer> probe =
      st.probe != nullptr
          ? std::make_unique<Writer>(*st.probe, nullptr, spec.kind, write_seed, o.trace)
          : nullptr;
  rs.schedule.rewind();
  PassTimes t;
  LayerAcc acc;
  double pass_cpu = 0.0;
  std::size_t queries = 0;
  std::shared_ptr<obs::TraceRecorder> rec = o.trace ? make_recorder(true) : nullptr;
  const double w0 = wall_now();

  // The traced run covers exactly the prefix.
  auto more = [&] {
    if (!first) {
      return queries < rs.ops;
    }
    if (queries < spec.prefix) {
      return true;
    }
    return !o.trace && pass_cpu < rs.target() &&
           wall_now() - w0 < kMaxPhaseWall / spec.passes;
  };
  while (more()) {
    if (writer != nullptr && queries > 0 && queries % kWriteEvery == 0) {
      for (std::size_t k = 0; k < kWriteEvery; ++k) {
        pass_cpu += writer->publish(t.w, out.f);
      }
      pass_cpu += writer->membership(t.w, out.f);
    }
    const PiraQuery q = draw_pira(rng, net, spec.width);
    const std::size_t issuer_len = net.peer(q.issuer).peer_id.length();
    RangeQueryResult r;
    int done_calls = 1;
    if (o.trace) {
      done_calls = 0;
      r = traced_pira_query(st, q, rec, acc, &done_calls);
    } else {
      const double w1 = wall_now();
      const double t0 = cpu_now();
      r = index.range_query(q.issuer, q.lo, q.hi);
      const double dt = cpu_now() - t0;
      t.query_wall.push_back(wall_now() - w1);
      t.query_cpu.push_back(dt);
      pass_cpu += dt;
    }
    bool ok = rs.same_as_first(first, queries, r);
    if (first) {
      // Later passes reproduce these checked answers digest for digest.
      const std::vector<std::uint64_t> truth = st.oracle.matches(q.lo, q.hi);
      ok = answer_ok(r, truth, issuer_len, done_calls);
      if (queries % 64 == 0 && truth != index.scan_matches(Box{{q.lo, q.hi}})) {
        std::fprintf(stderr, "oracle disagrees with scan_matches\n");
        ok = false;
      }
      if (queries < spec.prefix) {
        out.sim.add(r.stats);
      }
    } else if (!ok) {
      std::fprintf(stderr, "pass %d: query %zu differs from the first pass\n",
                   pass, queries);
    }
    out.f.op(ok);
    ++queries;
    if (!o.trace) {
      rs.schedule.due(probe.get(), spec, first, queries, pass_cpu, rs.target(),
                      t.w, out.f);
    }
  }
  rs.wall += wall_now() - w0;
  // The traced run takes the whole probe here, with membership reports.
  rs.schedule.finish(probe.get(), spec, first, queries, t.w, out.f);
  if (first) {
    rs.ops = queries;
  }
  if (st.probe != nullptr) {
    check_overlay(*st.probe, out.f);
  }
  check_overlay(*st.sys, out.f);
  if (o.trace) {
    finish_traced(st, spec, o.seed, acc, t.w, out);
  }
  return t;
}

/// One pass of the MIRA workload on a freshly built system: open-loop
/// rounds of spec.prefix injections; the first pass runs rounds until its
/// measured CPU reaches its share of --seconds, later passes repeat them.
PassTimes mira_pass(RunState& rs, int pass) {
  const Spec& spec = rs.spec;
  const Options& o = rs.o;
  const bool first = pass == 0;
  RunOut& out = rs.out;
  Setup st = rs.setup(pass);
  FissioneNetwork& net = st.sys->net;
  ArmadaIndex& index = st.sys->index;
  const double gap = mira_gap(spec.peers);

  {
    Rand warm(stream_seed(o.seed, kWarmupStream));
    mira_round(st, draw_mira(warm, net, spec.width, spec.warmup), gap,
               RoundMode::kTimed, nullptr);
  }

  Rand rng(stream_seed(o.seed, kQueryStream));
  std::unique_ptr<Writer> probe = std::make_unique<Writer>(
      *st.probe, nullptr, spec.kind, stream_seed(o.seed, kWriteStream), o.trace);
  rs.schedule.rewind();
  PassTimes t;
  LayerAcc acc;
  double pass_cpu = 0.0;
  std::size_t queries = 0;
  const double w0 = wall_now();

  auto check_round = [&](const std::vector<MiraQuery>& qs, const Round& r) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      bool ok = rs.same_as_first(first, queries, r.results[i]) && r.done[i] == 1;
      if (first) {
        // Later passes reproduce these checked answers digest for digest.
        ok = answer_ok(r.results[i], index.scan_matches(qs[i].box),
                       qs[i].issuer_len, r.done[i]);
        if (queries < spec.prefix) {
          out.sim.add(r.results[i].stats);
        }
      } else if (!ok) {
        std::fprintf(stderr, "pass %d: query %zu differs from the first pass\n",
                     pass, queries);
      }
      out.f.op(ok);
      ++queries;
    }
  };

  do {
    const std::vector<MiraQuery> qs = draw_mira(rng, net, spec.width, spec.prefix);
    if (!o.trace) {
      // Write-probe bursts run between slots, outside their timing.
      const double cpu_before = pass_cpu;
      const std::size_t slots_before = queries;
      Round r = mira_round(st, qs, gap, RoundMode::kTimed, nullptr,
                           [&](double round_cpu, std::size_t slots) {
                             rs.schedule.due(probe.get(), spec, first,
                                             slots_before + slots,
                                             cpu_before + round_cpu,
                                             rs.target(), t.w, out.f);
                           });
      t.query_cpu.insert(t.query_cpu.end(), r.slot_cpu.begin(), r.slot_cpu.end());
      t.query_wall.insert(t.query_wall.end(), r.slot_wall.begin(), r.slot_wall.end());
      pass_cpu += r.run_s;
      check_round(qs, r);
      continue;
    }
    // Traced run: the traced original, the plain run, and the re-run of
    // the same round, each on a fresh simulator and fresh queue state.
    std::shared_ptr<obs::TraceRecorder> rec = make_recorder(true);
    net.transport().attach_trace(rec);
    Round traced = mira_round(st, qs, gap, RoundMode::kPlain, nullptr);
    net.transport().detach_trace();
    Round plain = mira_round(st, qs, gap, RoundMode::kPlain, nullptr);
    const net::CongestionStats cs = net.congestion();
    Rerun rr{&acc, {}, {}, {}};
    Round rerun = mira_round(st, qs, gap, RoundMode::kRerun, &rr);
    replay_tests(rr, index.naming_tree());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (!same_answer(traced.results[i], plain.results[i]) ||
          !same_answer(traced.results[i], rerun.results[i]) ||
          rerun.done[i] != 1 || plain.done[i] != 1) {
        ++acc.rerun_mismatches;
      }
      acc.shed += static_cast<double>(plain.results[i].stats.shed);
    }
    acc.queries += qs.size();
    acc.dispatch_s += plain.dispatch_s;
    acc.drain_s += plain.run_s - plain.dispatch_s;
    acc.events += plain.events;
    acc.queue_delay_mean = cs.queue_delay_mean();
    acc.utilization = cs.service_utilization(plain.elapsed, net.num_peers());
    acc.egress_peak = static_cast<double>(cs.egress_depth_peak);
    replay_spans(acc, rec->spans(), true);
    check_round(qs, traced);
    for (const RangeQueryResult& r : traced.results) {
      acc.messages += r.stats.messages;
    }
  } while (!o.trace && (first ? pass_cpu < rs.target() &&
                                    wall_now() - w0 < kMaxPhaseWall / spec.passes
                              : queries < rs.ops));
  rs.wall += wall_now() - w0;
  // The traced run takes the whole probe here, with membership reports.
  rs.schedule.finish(probe.get(), spec, first, queries, t.w, out.f);
  if (first) {
    rs.ops = queries;
  }
  check_overlay(*st.probe, out.f);
  check_overlay(*st.sys, out.f);
  if (o.trace) {
    finish_traced(st, spec, o.seed, acc, t.w, out);
  }
  return t;
}

RunOut run(const Spec& spec, const Options& o) {
  RunState rs{spec, o, {}, {}, {}, 0, {}, {}, {}, {}, 0.0, 0.0};
  const int passes = o.trace ? 1 : spec.passes;
  for (int pass = 0; pass < passes; ++pass) {
    keep_least(rs.best, spec.kind == Kind::kPira ? pira_pass(rs, pass)
                                                 : mira_pass(rs, pass));
    if (pass == 0) {
      rs.rss = rss_mb();
    }
  }
  if (!o.trace) {
    e2e_metrics(rs);
  }
  return std::move(rs.out);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void print_meta(const Options& o, const Spec& spec) {
  std::printf(
      "META {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"tiny\": %s, \"peers\": %zu, \"objects\": %zu, "
      "\"prefix_queries\": %zu, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"flags\": \"%s\", \"cpu\": \"%s\", \"nproc\": %ld, "
      "\"commit\": \"%s\"}\n",
      spec.name.c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.tiny ? "true" : "false",
      spec.peers, spec.objects, spec.prefix, json_escape(RQB_COMPILER).c_str(),
      json_escape(RQB_BUILD_TYPE).c_str(), json_escape(RQB_FLAGS).c_str(),
      json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(o.commit).c_str());
}

void print_result(const RunOut& r) {
  std::string s = "{\"correct\": ";
  s += r.correct && r.f.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.f.attempted);
  s += ", \"failed\": " + std::to_string(r.f.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_sim(const SimAcc& s) {
  std::vector<Metric> m;
  sim_metrics(s, m);
  std::string line = "SIM {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + m[i].name + "\": " + num(m[i].value);
  }
  line += ", \"queries\": " + std::to_string(s.messages.size()) + "}";
  std::printf("%s\n", line.c_str());
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + a);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = v == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--commit") {
      o.commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Spec spec = make_spec(o.workload, o.tiny);
    print_meta(o, spec);
    std::fflush(stdout);
    const RunOut r = run(spec, o);
    print_sim(r.sim);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rqbench: %s\n", e.what());
    return 1;
  }
}
