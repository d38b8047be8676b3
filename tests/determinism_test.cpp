// Golden event-trace regression: a seeded end-to-end run (access-tree
// strategy + barriers, on a mesh and on a graph topology) hashes its
// message-delivery trace (time, node, channel) and compares against a
// committed golden value. A queue rewrite that silently reorders the
// simulated model — even while every self-consistency test still passes —
// changes this hash.
//
// The hash depends only on IEEE double arithmetic evaluated in program
// order (the cost model uses +, *, max), so it is stable across -O levels
// and toolchains on the same FP semantics (x86-64 SSE2, no FMA
// contraction). If a new platform ever legitimately disagrees, regenerate
// the goldens from the values these tests print on failure.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using sim::Task;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs the reference workload on `spec` under `cfg` and returns the
/// delivery-trace hash: every processor does `rounds` seeded
/// compute/read/write rounds over `numVars` variables, separated by
/// barriers, so the trace covers the data-management protocol, the
/// barrier service and the full message pipeline. `m` is left holding
/// the run's statistics.
std::uint64_t traceHash(Machine& m, const RuntimeConfig& cfg, int numVars, int rounds) {
  Runtime rt(m, cfg);
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });

  const NodeId procs = static_cast<NodeId>(m.numProcs());
  std::vector<VarId> vars;
  for (int i = 0; i < numVars; ++i) {
    vars.push_back(rt.createVarFree(static_cast<NodeId>((i * 7 + 3) % procs),
                                    makeValue<std::int64_t>(i)));
  }
  for (NodeId p = 0; p < procs; ++p) {
    sim::spawn([](Machine& mm, Runtime& r, NodeId self, std::vector<VarId>& vs,
                  int rounds) -> Task<> {
      const NodeId procs = static_cast<NodeId>(mm.numProcs());
      support::SplitMix64 rng(support::hashCombine(99, static_cast<std::uint64_t>(self)));
      for (int round = 0; round < rounds; ++round) {
        co_await mm.net.compute(self, rng.uniform(0.0, 300.0));
        const VarId v = vs[rng.below(vs.size())];
        // Exactly one writer per round (concurrent writes to a variable
        // are illegal without a lock); everyone else reads concurrently.
        if (self == (round * 5 + 1) % procs) {
          const auto cur = valueAs<std::int64_t>(co_await r.read(self, v));
          co_await r.write(self, v, makeValue<std::int64_t>(cur + self));
        } else {
          (void)co_await r.read(self, v);
        }
        co_await r.barrier(self);
      }
    }(m, rt, p, vars, rounds));
  }
  m.run();
  rt.checkAllInvariants();
  return hash;
}

std::uint64_t traceHash(const net::TopologySpec& spec) {
  Machine m(spec);
  return traceHash(m, RuntimeConfig::accessTree(4, 1, /*seed=*/42).on(spec), 4, 4);
}

TEST(DeterminismGolden, MeshEventTraceMatchesCommittedHash) {
  const std::uint64_t h = traceHash(net::TopologySpec::mesh2d(4, 4));
  // Committed golden (see file header for when to regenerate).
  const std::uint64_t kGolden = 0x2d6da8c3dd1d75dcull;
  EXPECT_EQ(h, kGolden) << "mesh trace hash changed: 0x" << std::hex << h
                        << " — the simulated model is no longer identical";
}

TEST(DeterminismGolden, GraphEventTraceMatchesCommittedHash) {
  const std::uint64_t h =
      traceHash(net::TopologySpec::graph(net::randomRegularGraph(16, 3, 7)));
  const std::uint64_t kGolden = 0x6abc3cd75895995aull;
  EXPECT_EQ(h, kGolden) << "graph trace hash changed: 0x" << std::hex << h
                        << " — the simulated model is no longer identical";
}

/// Delivery-trace hash of the committed hotspot scenario under the 4-ary
/// access tree: pins the whole workload pipeline — scenario parser, split
/// streams, Zipf sampler (integral exponent: exact arithmetic), driver,
/// strategy, locks, barriers. Editing scenarios/hotspot.scenario or any
/// generator implies regenerating this golden deliberately.
std::uint64_t scenarioTraceHash(const net::TopologySpec& spec, const char* file) {
  const workload::WorkloadSpec wl =
      workload::loadScenarioFile(std::string(DIVA_SCENARIO_DIR) + "/" + file);
  Machine m(spec);
  RuntimeConfig rc = RuntimeConfig::accessTree(4, 1, wl.seed).on(spec);
  Runtime rt(m, rc);
  std::uint64_t hash = 14695981039346656037ull;
  m.net.setDeliveryProbe([&hash](sim::Time t, NodeId node, net::Channel ch) {
    hash = fnv1a(hash, std::bit_cast<std::uint64_t>(t));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    hash = fnv1a(hash, static_cast<std::uint64_t>(ch));
  });
  (void)workload::run(m, rt, wl);
  rt.checkAllInvariants();
  return hash;
}

TEST(DeterminismGolden, HotspotScenarioTraceMatchesCommittedHash) {
  const std::uint64_t h =
      scenarioTraceHash(net::TopologySpec::mesh2d(8, 8), "hotspot.scenario");
  const std::uint64_t kGolden = 0x22c46d1f015b5bc6ull;
  EXPECT_EQ(h, kGolden) << "hotspot scenario trace hash changed: 0x" << std::hex << h
                        << " — workload generation or the simulated model moved";
}

TEST(DeterminismGolden, OpenLoopScenarioTraceMatchesCommittedHash) {
  // Pins the open-loop serving pipeline on top of everything the hotspot
  // golden covers: Poisson/burst arrival generation (portableLog — IEEE
  // arithmetic only), trace-file replay, queue-bound shedding and the
  // scheduled-arrival driver. Editing scenarios/openloop.scenario or
  // scenarios/sample.trace implies regenerating this golden deliberately.
  const std::uint64_t h =
      scenarioTraceHash(net::TopologySpec::mesh2d(8, 8), "openloop.scenario");
  const std::uint64_t kGolden = 0x56f64c3f9578eeeeull;
  EXPECT_EQ(h, kGolden) << "openloop scenario trace hash changed: 0x" << std::hex << h
                        << " — arrival generation or the serving driver moved";
}

TEST(DeterminismGolden, BoundedCacheEvictionTracesMatchCommittedHashes) {
  // The reference workload over 24 eight-byte variables with room for
  // three copies per processor: replacement runs constantly, so which
  // copy an eviction drops (and the CopyDrop it sends) is part of the
  // trace. Pinned per access-tree variant and shape, with the eviction
  // count alongside.
  struct Case {
    const char* name;
    net::TopologySpec spec;
    int arity;
    int leafSize;
    std::uint64_t golden;
    std::uint64_t evictions;
  };
  const net::TopologySpec mesh = net::TopologySpec::mesh2d(8, 8);
  const net::TopologySpec rr = net::TopologySpec::graph(net::randomRegularGraph(64, 4, 1));
  const Case cases[] = {
      {"mesh 2-ary", mesh, 2, 1, 0x1adb74fa6ce89dcfull, 420},
      {"mesh 4-ary", mesh, 4, 1, 0x8b35ad204d0eeba5ull, 317},
      {"mesh 4-16-ary", mesh, 4, 16, 0xa0ff61068e56597aull, 210},
      {"rr64 2-ary", rr, 2, 1, 0x69ab67fa8a452c18ull, 393},
      {"rr64 4-ary", rr, 4, 1, 0x1d0fee7fc185df12ull, 348},
      {"rr64 4-16-ary", rr, 4, 16, 0x73780b2bdbbebaa7ull, 212},
  };
  for (const Case& c : cases) {
    Machine m(c.spec);
    RuntimeConfig cfg = RuntimeConfig::accessTree(c.arity, c.leafSize, /*seed=*/42).on(c.spec);
    cfg.cacheCapacityBytes = 3 * sizeof(std::int64_t);
    const std::uint64_t h = traceHash(m, cfg, 24, 6);
    std::printf("[golden] %s 0x%016llxull evictions %llu\n", c.name,
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(m.stats.ops.evictions));
    EXPECT_EQ(h, c.golden) << c.name << " bounded-cache trace hash changed: 0x" << std::hex
                           << h << " — replacement or the simulated model moved";
    EXPECT_EQ(m.stats.ops.evictions, c.evictions) << c.name;
  }
}

TEST(DeterminismGolden, TraceHashIsRunToRunStable) {
  // Guards the harness itself: two runs in one process must agree (no
  // address-dependent or allocation-order-dependent inputs leak in).
  const auto spec = net::TopologySpec::mesh2d(4, 4);
  EXPECT_EQ(traceHash(spec), traceHash(spec));
}

}  // namespace
}  // namespace diva
