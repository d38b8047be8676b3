// Same-box benchmark of the DIVA simulator (see perfbench/METRICS.md).
//
// One workload per process, so peak RSS is the workload's own. Every
// repetition builds a fresh machine and runtime and runs the workload
// under the 4-ary access tree and under fixed home on the same machine
// shape and seed, as tools/scenario_runner does. Repetitions continue
// until --seconds of host time are used (at least two, for the repeat
// check). Host times are scaled to a reference host speed by a calibration
// kernel timed after each repetition, and reported as the median over
// repetitions.
//
//   perfbench --workload barneshut|serve-churn|hier-scale --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--smoke] [--perturb]
//
//   --trace 0   end-to-end metrics, every observer off
//   --trace 1   per-layer metrics; each repetition also runs the access
//               tree with an obs::Tracer attached, and DIR (if given)
//               receives the benchmark's own host-time spans and the
//               simulated-time trace of the last traced run, both as
//               Chrome trace JSON
//   --smoke     small inputs (self-tests)
//   --perturb   flip one bit of the first access-tree output, so the
//               output checks must fail (self-tests)
//
// The last stdout line is one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
// Exit code 0 iff every output check passed; 2 on bad usage; 3 when
// building a workload's inputs threw. A run that throws fails that run's
// operations and the result is still printed.

// The pass-through `::operator delete(p)` → `std::free` chain below is a
// matched pair (every path allocates with malloc/aligned_alloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <memory_resource>
#include <new>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/barneshut/barneshut.hpp"
#include "apps/barneshut/octree.hpp"
#include "apps/barneshut/plummer.hpp"
#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/topology_env.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every heap allocation in the process, libdiva's
// included (it is linked statically). The benchmark is single-threaded,
// so a plain counter suffices.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t gAllocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++gAllocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++gAllocs;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) & ~(align - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace diva;
namespace bh = diva::apps::barneshut;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A size field of /proc/self/status ("VmRSS:", "VmHWM:"), in MB; 0 if
/// unreadable.
double statusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, n, field) == 0) return std::strtod(line.c_str() + n, nullptr) / 1024.0;
  return 0.0;
}

/// Resident set size now, in MB.
double currentRssMb() { return statusMb("VmRSS:"); }

/// Peak resident set size of this program, in MB. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would include the
/// peak of the process that launched the benchmark (python's, ~8 MB).
double peakRssMb() { return statusMb("VmHWM:"); }

// ---------------------------------------------------------------------------
// Host-time spans around the calls into each layer, kept in memory and
// written as Chrome trace JSON when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  /// Open a span; its times are set by close(). `parent` is -1 for a root.
  int open(const char* name, const char* strategy, int parent, int rep) {
    spans_.push_back({name, strategy, parent, rep, 0.0, 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Clock::time_point start, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].startUs = secondsBetween(origin_, start) * 1e6;
    spans_[static_cast<std::size_t>(id)].endUs = secondsBetween(origin_, end) * 1e6;
  }

  void writeChromeJson(std::ostream& out) const {
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[384];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"rep\":%d,\"strategy\":\"%s\"}}",
                    i == 0 ? "" : ",\n", s.name, s.startUs, s.endUs - s.startUs, i,
                    s.parent, s.rep, s.strategy);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    const char* strategy;
    int parent;
    int rep;
    double startUs;
    double endUs;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Timed {
  double seconds = 0.0;
  std::uint64_t allocs = 0;
};

/// Run `f` inside a span; the span's bounds are the measured interval.
template <typename F>
Timed timed(SpanLog& log, const char* name, const char* strategy, int parent, int rep,
            F&& f) {
  const int id = log.open(name, strategy, parent, rep);
  const std::uint64_t a0 = gAllocs;
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = gAllocs;
  log.close(id, t0, t1);
  return {secondsBetween(t0, t1), a1 - a0};
}

// ---------------------------------------------------------------------------
// Host-speed calibration. A shared VM's speed drifts by 15-30 % over
// minutes (other tenants' cache and memory traffic, not stolen time: the
// thread's CPU time equals its wall time), and a drift that long survives
// any number of repetitions. So after each repetition the benchmark times
// a fixed reference kernel of its own -- never the simulator's code, so no
// change to the simulator moves it -- and the repetition's host times are
// scaled by kCalibRefS / (that kernel's time): seconds at a fixed
// reference speed.
// ---------------------------------------------------------------------------

/// The kernel's median time, rounded, on the 4-vCPU VM the baseline was
/// recorded on (perfbench/baseline.json).
constexpr double kCalibRefS = 0.1;

/// The kernel's own memory, so that its speed depends on the host and not
/// on the heap the workloads leave behind.
alignas(64) std::byte gCalibArena[16 << 20];
volatile std::uint64_t gCalibSink = 0;

/// The reference kernel: a sort of pseudo-random keys, then a small
/// discrete-event loop over a binary heap, per-node hash maps and one
/// allocation per event -- the branchy, allocation- and cache-heavy mix the
/// simulator runs. Deterministic, so it always fits its arena.
void calibrate() {
  std::pmr::monotonic_buffer_resource arena(gCalibArena, sizeof gCalibArena,
                                            std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::pmr::vector<std::uint64_t> keys(500000, &pool);
  for (std::uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = keys[keys.size() / 2];

  struct Event {
    std::uint64_t time;
    std::uint32_t node;
    std::uint32_t key;
    bool operator<(const Event& o) const { return time > o.time; }
  };
  constexpr std::uint32_t kNodes = 256;
  constexpr std::uint32_t kKeys = 256;  // per node
  std::pmr::vector<std::pmr::unordered_map<std::uint32_t, std::uint64_t>> state(kNodes, &pool);
  std::priority_queue<Event, std::pmr::vector<Event>> queue{std::less<Event>{},
                                                             std::pmr::vector<Event>(&pool)};
  for (std::uint32_t i = 0; i < 4096; ++i)
    queue.push({next() % 1000, i % kNodes, static_cast<std::uint32_t>(next() % kKeys)});
  for (int i = 0; i < 150000; ++i) {
    const Event e = queue.top();
    queue.pop();
    auto& vars = state[e.node];
    if (auto it = vars.find(e.key); it == vars.end()) {
      vars.emplace(e.key, e.time);
    } else if (next() % 8 == 0) {
      vars.erase(it);
    } else {
      h += it->second;
      it->second ^= e.time;
    }
    const std::pmr::vector<std::uint32_t> payload(1 + next() % 8, e.key, &pool);
    h += payload.size();
    queue.push({e.time + 1 + next() % 1000, static_cast<std::uint32_t>(next() % kNodes),
                static_cast<std::uint32_t>(next() % kKeys)});
  }
  gCalibSink = h;
}

// ---------------------------------------------------------------------------
// One strategy run: set-up, timed run, counters read from the layers'
// public state, then the output checks.
// ---------------------------------------------------------------------------

struct Sample {
  Timed netBuild;   ///< Machine constructor
  Timed divaBuild;  ///< Runtime constructor
  Timed run;        ///< workload::run / barneshut::run
  double setupRssMb = 0.0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t linkMsgs = 0;
  sim::EventQueue::Stats queue;
  std::uint64_t rerouted = 0;
  std::uint64_t parked = 0;
  Stats::Counters ops;
  std::uint64_t attempted = 0;  ///< spec'd accesses/requests, or body-steps
  std::uint64_t failed = 0;
  double simTimeUs = 0.0;
  std::uint64_t congestionBytes = 0;
  workload::ServeMetrics serve;
  std::uint64_t cellsCreated = 0;
  std::vector<bh::BodyData> finalBodies;  ///< barneshut only
  std::string report;  ///< deterministic rendering of the model outputs
  std::string error;   ///< first failed output check; empty when all pass
};

struct Workload {
  net::TopologySpec topo;
  RuntimeConfig at;
  RuntimeConfig fh;
  /// The timed part: run the workload on a fresh machine and runtime and
  /// fill the sample's model outputs (simTimeUs, congestionBytes,
  /// attempted, failed, report, ...).
  std::function<void(Machine&, Runtime&, obs::Tracer*, Sample&)> run;
  /// Output check against an independent reference (untimed); sets
  /// Sample::error on a mismatch.
  std::function<void(Sample&)> check;
  /// For a `run` that resets the link statistics part-way (barneshut's
  /// warm-up step): an untimed run of the same traffic without the reset,
  /// returning its link crossings and messages, so both cover the same
  /// steps. Empty for the other workloads.
  std::function<std::pair<std::uint64_t, std::uint64_t>(const RuntimeConfig&)> wholeRunLinks;
};

Sample runStrategy(const Workload& w, const RuntimeConfig& rc, const char* label,
                   obs::Tracer* tracer, bool perturb, SpanLog& log, int rep) {
  Sample s;
  const int root = log.open(label, label, -1, rep);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Machine> m;
  std::unique_ptr<Runtime> rt;
  s.netBuild = timed(log, "net.build", label, root, rep,
                     [&] { m = std::make_unique<Machine>(w.topo); });
  s.divaBuild = timed(log, "diva.build", label, root, rep,
                      [&] { rt = std::make_unique<Runtime>(*m, rc); });
  s.setupRssMb = currentRssMb();
  if (tracer != nullptr) tracer->enable(m->engine, obs::kCatAll);
  s.run = timed(log, "workload.run", label, root, rep, [&] {
    // A check inside the run (workload::run checks invariants itself on
    // faulted or reconfigured runs) or any other failure fails this run
    // only, so the result is still printed with its operations failed.
    try {
      w.run(*m, *rt, tracer, s);
    } catch (const std::exception& e) {
      s.error = std::string("run failed: ") + e.what();
    }
  });

  s.events = m->engine.eventsProcessed();
  s.queue = m->engine.queueStats();
  s.msgs = m->net.messagesSent();
  s.linkMsgs = m->stats.links.totalMessages();
  s.rerouted = m->net.reroutedFlights();
  s.parked = m->net.parkedFlights();
  s.ops = m->stats.ops;

  timed(log, "check", label, root, rep, [&] {
    if (perturb) {
      if (!s.finalBodies.empty())
        s.finalBodies[0].pos.x = std::nextafter(s.finalBodies[0].pos.x, 1e300);
      else
        s.report += " perturbed";
    }
    if (s.error.empty()) {
      try {
        rt->checkAllInvariants();
      } catch (const support::CheckError& e) {
        s.error = std::string("invariant check failed: ") + e.what();
      }
    }
    if (s.error.empty() && w.check) w.check(s);
  });
  timed(log, "teardown", label, root, rep, [&] {
    rt.reset();
    m.reset();
  });
  log.close(root, t0, Clock::now());
  return s;
}

// ---------------------------------------------------------------------------
// Workloads. Every input comes from --seed; machine shapes are fixed.
// ---------------------------------------------------------------------------

/// FNV-1a over raw bytes (final-body fingerprint for the repeat check).
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

bool sameBody(const bh::BodyData& a, const bh::BodyData& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The paper's §3.3 application: a Plummer model, 1 warm-up step and 2
/// measured steps, on an 8×8 mesh (fig08's 16×16 mesh gives too few
/// repetitions per run for a steady median).
Workload makeBarneshut(std::uint64_t seed, bool smoke) {
  bh::Config cfg;
  cfg.numBodies = smoke ? 256 : 2000;
  cfg.steps = 3;
  cfg.warmupSteps = 1;
  cfg.seed = seed;
  const int side = smoke ? 4 : 8;

  // The sequential reference, computed once per process, untimed.
  bh::ReferenceSimulator ref(bh::plummerModel(cfg.numBodies, cfg.seed), cfg.params);
  for (int i = 0; i < cfg.steps; ++i) ref.step();
  auto reference = std::make_shared<const std::vector<bh::BodyData>>(ref.bodies());

  Workload w;
  w.topo = net::TopologySpec::mesh2d(side, side);
  w.at = RuntimeConfig::accessTree(4).on(w.topo);
  w.fh = RuntimeConfig::fixedHome().on(w.topo);
  w.run = [cfg](Machine& m, Runtime& rt, obs::Tracer* tracer, Sample& s) {
    if (tracer != nullptr) m.net.setTracer(tracer);
    bh::Result r = bh::run(m, rt, cfg);
    s.attempted = static_cast<std::uint64_t>(cfg.numBodies) * cfg.steps;
    s.simTimeUs = r.timeUs;
    s.congestionBytes = r.congestionBytes;
    s.cellsCreated = r.cellsCreated;
    s.finalBodies = std::move(r.finalBodies);
    std::ostringstream rep;
    rep.precision(17);
    rep << "time_us " << r.timeUs << " congestion " << r.congestionMessages << '/'
        << r.congestionBytes << " total " << r.totalMessages << '/' << r.totalBytes
        << " cells " << r.cellsCreated << " reads " << r.reads << '/' << r.readHits;
    for (int ph = 0; ph < bh::kNumPhases; ++ph)
      rep << " phase" << ph << ' ' << r.phaseWallUs[static_cast<std::size_t>(ph)] << '/'
          << r.phaseCongestionBytes[static_cast<std::size_t>(ph)];
    s.report = rep.str();
  };
  w.wholeRunLinks = [cfg, topo = w.topo](const RuntimeConfig& rc) {
    bh::Config whole = cfg;
    whole.warmupSteps = 0;  // the warm-up step only resets the statistics
    Machine m(topo);
    Runtime rt(m, rc);
    bh::run(m, rt, whole);
    return std::make_pair(m.stats.links.totalMessages(), m.net.messagesSent());
  };
  w.check = [reference](Sample& s) {
    // Final bodies bit-identical to the sequential reference.
    if (s.finalBodies.size() != reference->size()) {
      s.error = "barneshut: body count differs from the reference";
      return;
    }
    for (std::size_t i = 0; i < reference->size(); ++i) {
      if (!sameBody(s.finalBodies[i], (*reference)[i])) {
        s.error = "barneshut: body " + std::to_string(i) + " differs from the reference";
        return;
      }
    }
    s.report += " bodies " + std::to_string(fnv1a(s.finalBodies.data(),
                                                  s.finalBodies.size() *
                                                      sizeof(bh::BodyData)));
  };
  return w;
}

/// A synthetic spec run through workload::run with the runtime configured
/// as workload::runOn does (spec seed, spec cache bound).
Workload makeSynthetic(const net::TopologySpec& topo, const workload::WorkloadSpec& spec) {
  Workload w;
  w.topo = topo;
  const auto configure = [&](RuntimeConfig rc) {
    rc.seed = spec.seed;
    rc.cacheCapacityBytes = spec.cacheBytes ? spec.cacheBytes : ~0ull;
    return rc;
  };
  w.at = configure(RuntimeConfig::accessTree(4));
  w.fh = configure(RuntimeConfig::fixedHome());
  w.run = [spec](Machine& m, Runtime& rt, obs::Tracer* tracer, Sample& s) {
    workload::RunOptions opts;
    opts.tracer = tracer;
    const workload::WorkloadReport r = workload::run(m, rt, spec, opts);
    // Shed requests are not counted in failedOps; outage and retirement
    // losses are counted in both, so `failed` is an upper bound.
    s.attempted = r.servedOps + r.failedOps + r.serve.dropped;
    s.failed = r.failedOps + r.serve.dropped;
    s.simTimeUs = r.completionUs;
    s.congestionBytes = r.congestionBytes;
    s.serve = r.serve;
    s.report = workload::reportJson(r);
  };
  return w;
}

/// Closed-loop write-heavy churn with faults and a bounded cache, then
/// open-loop Poisson and bursty serving below the knee with grow/shrink
/// reconfiguration, on a 64-node random-regular graph. Built from the
/// committed churn, shift, openloop and elastic scenarios.
Workload makeServeChurn(std::uint64_t seed, bool smoke) {
  const net::TopologySpec topo = net::topologyByName("random-regular", 8, 8);
  const std::unique_ptr<net::Topology> shape = net::makeTopology(topo);
  const int k = smoke ? 1 : 8;  // round multiplier
  const auto edge = [&](NodeId u) {
    return std::to_string(u) + " " + std::to_string(shape->neighbor(u, 0));
  };
  std::ostringstream t;
  t << "scenario serve-churn\nseed " << seed
    << "\nobjects 256 1024\ncache 16384\nprocs 64\ntopology random-regular\n"
    // Closed loop, write-heavy, locked writes, a crash/recover inside the
    // retry budget, a link flap and a degraded link.
    << "phase churn\nrounds " << 40 * k << "\nreads 0.4\nzipf 1\nthink 150\n"
    << "fault 1000 link-down " << edge(10) << "\nfault 2000 node-down 27\n"
    << "fault 3000 degrade " << edge(40) << " 4 2\nfault 6000 node-up 27\n"
    << "fault 8000 link-up " << edge(10) << "\nfault 12000 degrade " << edge(40)
    << " 1 1\n"
    // Open loop: Poisson arrivals while four nodes join.
    << "phase steady\nrounds " << 12 * k << "\nreads 0.9\nzipf 1\narrival poisson 1500\n"
    << "deadline 50000\nqueue 64\n"
    << "reconfig 2000 add-node 0\nreconfig 2000 add-node 1\n"
    << "reconfig 4000 add-node 2\nreconfig 4000 add-node 3\n"
    // Open loop: bursts below the knee, the grown machine serving.
    << "phase bursty\nrounds " << 8 * k << "\nreads 0.95\nzipf 1\n"
    << "arrival burst 4000 2000 6000\ndeadline 50000\nqueue 64\n"
    // Closed loop: the grown nodes retire again.
    << "phase shrink\nrounds " << 16 * k << "\nreads 0.7\nzipf 1\nthink 200\n"
    << "reconfig 3000 remove-node 64\nreconfig 3000 remove-node 65\n"
    << "reconfig 6000 remove-node 66\nreconfig 6000 remove-node 67\n";
  return makeSynthetic(topo, workload::parseScenario(t.str()));
}

/// The light read workload of hier_100k.scenario at 4096 processors on a
/// hierarchically routed random-regular graph. Its skewed read burst (two
/// rounds) is spread over eight hot sets, one round each (as
/// hotspot.scenario's drift phase): where the few hot objects sit decides
/// most of a run's cost, so sampling eight of them keeps the cost from
/// swinging with the seed.
Workload makeHierScale(std::uint64_t seed, bool smoke) {
  const int side = smoke ? 16 : 64;
  std::ostringstream t;
  t << "scenario hier-scale\nseed " << seed << "\nobjects 256 64\nprocs " << side * side
    << "\ntopology hier-random-regular\n"
    << "phase warm\nrounds 1\nreads 1.0\nthink 50\n";
  for (int shift = 0; shift < 256; shift += 32)
    t << "phase read-hot\nrounds 1\nreads 0.9\nzipf 2\nhotshift " << shift << "\nthink 50\n";
  return makeSynthetic(net::topologyByName("hier-random-regular", side, side),
                       workload::parseScenario(t.str()));
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// a / b for any arithmetic operands; 0 when b is 0.
template <typename A, typename B>
double ratio(A a, B b) {
  return b != 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

struct Rep {
  Sample at;
  Sample fh;
  Sample atTraced;      ///< --trace 1 only
  double calibS = 0.0;  ///< reference kernel, timed after the runs

  /// `t`'s host seconds at the reference host speed.
  double ref(const Timed& t) const { return t.seconds * kCalibRefS / calibS; }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Median of f over the first `limit` repetitions (all by default).
template <typename F>
double medianOver(const std::vector<Rep>& reps, F&& f, std::size_t limit = SIZE_MAX) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reps.size() && i < limit; ++i) v.push_back(f(reps[i]));
  return median(std::move(v));
}

/// Set-up times come from the first repetitions only. On the cheap
/// set-ups (barneshut's 8x8 mesh) they grow as the process heap ages, by
/// 10-25 % from the first ten repetitions to the next ten, and the number
/// of repetitions depends on host speed.
constexpr std::size_t kSetupReps = 5;

// Host times per repetition, at the reference speed; metrics take their
// median over repetitions.
double atRunS(const Rep& r) { return r.ref(r.at.run); }
double fhRunS(const Rep& r) { return r.ref(r.fh.run); }
double tracedRunS(const Rep& r) { return r.ref(r.atTraced.run); }
double netBuildS(const Rep& r) { return r.ref(r.at.netBuild) + r.ref(r.fh.netBuild); }
double divaBuildS(const Rep& r) { return r.ref(r.at.divaBuild) + r.ref(r.fh.divaBuild); }
double bothSetupS(const Rep& r) { return netBuildS(r) + divaBuildS(r); }

std::vector<Metric> endToEnd(const std::vector<Rep>& reps, double peakRss) {
  const Rep& r0 = reps.front();
  return {
      {"setup_s", medianOver(reps, bothSetupS, kSetupReps), "s"},
      {"ops_per_s",
       ratio(r0.at.attempted + r0.fh.attempted,
             medianOver(reps, atRunS) + medianOver(reps, fhRunS)),
       "1/s"},
      {"peak_rss_mb", peakRss, "MB"},
  };
}

std::vector<Metric> perLayer(const std::vector<Rep>& reps, double setupRssMb) {
  const Sample& a = reps.front().at;
  const Sample& f = reps.front().fh;
  using C = Stats::Counters;
  const auto both = [&](std::uint64_t C::* field) {
    return static_cast<double>(a.ops.*field + f.ops.*field);
  };
  const double events = static_cast<double>(a.events + f.events);
  const double msgs = static_cast<double>(a.msgs + f.msgs);
  const std::uint64_t sorted = a.queue.sortedPushes + f.queue.sortedPushes;
  const std::uint64_t ring = a.queue.ringPushes + f.queue.ringPushes;
  const std::uint64_t overflow = a.queue.overflowPushes + f.queue.overflowPushes;
  const std::uint64_t pushes = sorted + ring + overflow;
  const double atS = medianOver(reps, atRunS);
  const double fhS = medianOver(reps, fhRunS);
  const double runS = atS + fhS;
  return {
      {"host.calib_s", medianOver(reps, [](const Rep& r) { return r.calibS; }), "s"},
      {"net.build_s", medianOver(reps, netBuildS, kSetupReps), "s"},
      {"net.build_allocs", static_cast<double>(a.netBuild.allocs + f.netBuild.allocs), "count"},
      {"diva.build_s", medianOver(reps, divaBuildS, kSetupReps), "s"},
      {"diva.build_allocs", static_cast<double>(a.divaBuild.allocs + f.divaBuild.allocs),
       "count"},
      {"mem.setup_rss_mb", setupRssMb, "MB"},
      {"diva.at.run_s", atS, "s"},
      {"diva.fh.run_s", fhS, "s"},
      {"workload.at.host_us_per_op", ratio(atS * 1e6, a.attempted), "us/op"},
      {"workload.fh.host_us_per_op", ratio(fhS * 1e6, f.attempted), "us/op"},
      {"sim.events", events, "count"},
      {"sim.events_per_msg", ratio(events, msgs), "events/msg"},
      {"sim.host_ns_per_event", ratio(runS * 1e9, events), "ns/event"},
      {"sim.sorted_push_share", ratio(sorted, pushes), "ratio"},
      {"sim.ring_push_share", ratio(ring, pushes), "ratio"},
      {"sim.overflow_push_share", ratio(overflow, pushes), "ratio"},
      {"net.msgs", msgs, "count"},
      {"net.hops_per_msg", ratio(a.linkMsgs + f.linkMsgs, msgs), "hops/msg"},
      {"net.host_ns_per_msg", ratio(runS * 1e9, msgs), "ns/msg"},
      {"net.rerouted", static_cast<double>(a.rerouted + f.rerouted), "count"},
      {"net.parked", static_cast<double>(a.parked + f.parked), "count"},
      {"diva.at.allocs_per_msg", ratio(a.run.allocs, a.msgs), "allocs/msg"},
      {"diva.fh.allocs_per_msg", ratio(f.run.allocs, f.msgs), "allocs/msg"},
      {"diva.at.msgs_per_op", ratio(a.msgs, a.attempted), "msgs/op"},
      {"diva.fh.msgs_per_op", ratio(f.msgs, f.attempted), "msgs/op"},
      {"diva.at.read_hit_ratio", ratio(a.ops.readHits, a.ops.reads), "ratio"},
      {"diva.fh.read_hit_ratio", ratio(f.ops.readHits, f.ops.reads), "ratio"},
      {"diva.invalidations_per_write", ratio(both(&C::invalidations), both(&C::writes)),
       "inv/write"},
      {"diva.locks", both(&C::locks), "count"},
      {"diva.evictions", both(&C::evictions), "count"},
      {"diva.protocol_retries", both(&C::protocolRetries), "count"},
      {"diva.repaired_vars", both(&C::repairedVars), "count"},
      {"diva.recovery_msgs", both(&C::recoveryMessages), "count"},
      {"diva.migrated_vars", both(&C::migratedVars), "count"},
      {"diva.migration_msgs", both(&C::migrationMessages), "count"},
      {"diva.forwarded_ops", both(&C::forwardedOps), "count"},
      {"workload.failed_ops", both(&C::failedOps), "count"},
      {"workload.retried_ops", both(&C::retriedOps), "count"},
      {"serve.dropped", static_cast<double>(a.serve.dropped + f.serve.dropped), "count"},
      {"serve.late", static_cast<double>(a.serve.late + f.serve.late), "count"},
      {"serve.max_in_flight",
       static_cast<double>(std::max(a.serve.maxInFlight, f.serve.maxInFlight)), "count"},
      {"serve.achieved_per_s", a.serve.achievedPerSec, "1/s"},
      {"sim_time_ratio", ratio(a.simTimeUs, f.simTimeUs), "ratio"},
      {"congestion_ratio", ratio(a.congestionBytes, f.congestionBytes), "ratio"},
      {"sim_p99_us", a.serve.p99Us, "us"},
      {"ops_failed_share", ratio(a.failed + f.failed, a.attempted + f.attempted), "ratio"},
      {"apps.cells_created", static_cast<double>(a.cellsCreated + f.cellsCreated), "count"},
      {"obs.traced_run_ratio", ratio(medianOver(reps, tracedRunS), atS), "ratio"},
  };
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

const char kUsage[] =
    "usage: perfbench --workload barneshut|serve-churn|hier-scale --seed N\n"
    "                 --seconds S --trace 0|1 [--trace-dir DIR] [--smoke] [--perturb]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string traceDir;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool perturb = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      name = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && hasValue) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && hasValue) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-dir" && hasValue) {
      traceDir = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--perturb") {
      perturb = true;
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  try {
    const auto useed = static_cast<std::uint64_t>(seed);
    Workload w;
    if (name == "barneshut") {
      w = makeBarneshut(useed, smoke);
    } else if (name == "serve-churn") {
      w = makeServeChurn(useed, smoke);
    } else if (name == "hier-scale") {
      w = makeHierScale(useed, smoke);
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }

    // Stay on the CPU the run started on: migrations between cores add
    // noise to host times. Best effort; failure leaves scheduling as is.
    if (const int cpu = sched_getcpu(); cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }

    SpanLog log;
    std::vector<Rep> reps;
    std::unique_ptr<obs::Tracer> lastTracer;
    double setupRssMb = 0.0;
    double peakRss = 0.0;
    constexpr int kMinReps = 2;  // the repeat check needs two
    const Clock::time_point start = Clock::now();
    for (int rep = 0;; ++rep) {
      const double elapsed = secondsBetween(start, Clock::now());
      if (rep >= kMinReps && elapsed + elapsed / rep > seconds) break;
      Rep r;
      // The traced run alternates with the untraced access-tree run, so
      // neither always runs right after the other's teardown.
      const auto traced = [&] {
        auto tracer = std::make_unique<obs::Tracer>();
        r.atTraced = runStrategy(w, w.at, "at.traced", tracer.get(), false, log, rep);
        lastTracer = std::move(tracer);
      };
      if (trace == 1 && rep % 2 == 1) traced();
      r.at = runStrategy(w, w.at, "at", nullptr, perturb && rep == 0, log, rep);
      if (rep == 0) setupRssMb = r.at.setupRssMb;
      r.fh = runStrategy(w, w.fh, "fh", nullptr, false, log, rep);
      if (trace == 1 && rep % 2 == 0) traced();
      if (rep == 0) {
        // Read the peak before the first calibration, so it is the
        // workload's own, and before later repetitions, whose number
        // depends on host speed, can add heap growth.
        peakRss = peakRssMb();
        calibrate();  // untimed: the first run page-faults the arena in
      }
      r.calibS = timed(log, "calibrate", "", -1, rep, calibrate).seconds;
      reps.push_back(std::move(r));
    }
    if (trace == 1 && w.wholeRunLinks) {
      // Link crossings over the same steps as messagesSent (net.hops_per_msg).
      for (auto [rc, sample] : {std::pair{&w.at, &reps.front().at}, {&w.fh, &reps.front().fh}}) {
        const auto [crossings, msgs] = w.wholeRunLinks(*rc);
        sample->linkMsgs = crossings;
        if (msgs != sample->msgs && sample->error.empty())
          sample->error = "the run without warm-up reset sent different traffic";
      }
    }
    // Output checks: each run against its reference, then every run's
    // model outputs against the first repetition's (and the traced run's
    // against the untraced one — the tracer is a pure observer).
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto account = [&](Sample& s, const Sample& first) {
      if (s.error.empty() && s.report != first.report)
        s.error = "model outputs differ from the first repetition";
      // A run that threw never reported its operations: count the first
      // repetition's (at least one) as attempted and failed.
      if (s.attempted == 0) s.attempted = std::max<std::uint64_t>(first.attempted, 1);
      attempted += s.attempted;
      if (s.error.empty()) {
        failed += s.failed;
      } else {
        failed += s.attempted;
        correct = false;
        std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(), s.error.c_str());
      }
    };
    const Rep first = reps.front();
    for (Rep& r : reps) {
      account(r.at, first.at);
      account(r.fh, first.fh);
      if (trace == 1) account(r.atTraced, first.at);
    }

    if (!traceDir.empty() && trace == 1) {
      std::ofstream spans(traceDir + "/" + name + "-spans.json");
      log.writeChromeJson(spans);
      std::ofstream sim(traceDir + "/" + name + "-sim.json");
      lastTracer->writeChromeJson(sim);
      if (!spans.good() || !sim.good()) {
        std::fprintf(stderr, "perfbench: cannot write traces to %s\n", traceDir.c_str());
        return 2;
      }
    }

    printJson(correct, attempted, failed,
              trace == 1 ? perLayer(reps, setupRssMb) : endToEnd(reps, peakRss));
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
