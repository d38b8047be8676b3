// Differential tests for hierarchical landmark-ball routing
// (net/hier_routing.hpp, docs/routing.md): every hierarchical route is
// checked against the dense Dijkstra oracle of GraphTopology on a seeded
// corpus of graph shapes — validity (every hop a real link, terminates
// at the destination), the documented stretch bound, determinism across
// rebuilds, and strategy-level equivalence: the same race-free operation
// sequence yields the same values on the dense and the hierarchical
// machine, with protocol invariants intact at quiescence, including
// under scripted link failures. Golden route fingerprints pin the exact
// spine fallback, and both routers must reject a disconnected graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "diva/machine.hpp"
#include "diva/runtime.hpp"
#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "net/topology.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace diva {
namespace {

using net::GraphSpec;
using net::NodeId;
using net::TopologySpec;

/// The documented stretch bound: hierarchical hop count never exceeds
/// this multiple of the dense shortest-path hop count (docs/routing.md).
constexpr double kStretchBound = 3.0;

/// The seeded corpus: every generator family of the graph layer, sizes
/// 8–512 (the dense oracle stays affordable at 512).
std::vector<GraphSpec> corpus() {
  return {
      net::ringGraph(8),
      net::ringGraph(129),
      net::starGraph(64),
      net::gridGraph(3, 3),
      net::gridGraph(16, 17),
      net::fatTreeGraph(2, 4),
      net::fatTreeGraph(4, 4),
      net::randomRegularGraph(32, 3, 7),
      net::randomRegularGraph(512, 4, 1234),
  };
}

/// Sampled (from, to) pairs: exhaustive on small graphs, a seeded sample
/// on large ones — deterministic either way.
std::vector<std::pair<NodeId, NodeId>> samplePairs(int n, std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (n <= 64) {
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = 0; b < n; ++b) pairs.emplace_back(a, b);
    return pairs;
  }
  support::SplitMix64 rng(seed);
  for (int i = 0; i < 4000; ++i) {
    const auto a = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    const auto b = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    pairs.emplace_back(a, b);
  }
  return pairs;
}

/// Walk `route` from `from`, asserting every hop is a real link of
/// `topo`; returns the endpoint.
NodeId walkRoute(const net::Topology& topo, NodeId from,
                 const std::vector<net::Hop>& route) {
  NodeId cur = from;
  for (const net::Hop& h : route) {
    const int dir = h.link - topo.linkIndex(cur, 0);
    EXPECT_GE(dir, 0);
    EXPECT_LT(dir, topo.degree());
    const NodeId next = topo.neighbor(cur, dir);
    EXPECT_GE(next, 0) << "route uses an empty link slot";
    EXPECT_EQ(next, h.to);
    cur = next;
  }
  return cur;
}

TEST(HierRouting, RoutesValidAndBoundedStretchOnCorpus) {
  double worstStretch = 1.0;
  for (const GraphSpec& g : corpus()) {
    const auto dense = net::makeTopology(TopologySpec::graph(g));
    const auto hier = net::makeTopology(TopologySpec::hierGraph(g));
    ASSERT_EQ(hier->numNodes(), dense->numNodes()) << g.name;
    for (const auto& [a, b] : samplePairs(dense->numNodes(), 99)) {
      const auto route = net::routeOf(*hier, a, b);
      ASSERT_EQ(walkRoute(*hier, a, route), b) << g.name << " " << a << "->" << b;
      ASSERT_EQ(static_cast<int>(route.size()), hier->distance(a, b)) << g.name;
      const int denseHops = dense->distance(a, b);
      if (denseHops > 0) {
        const double stretch = static_cast<double>(route.size()) / denseHops;
        worstStretch = std::max(worstStretch, stretch);
        ASSERT_LE(stretch, kStretchBound)
            << g.name << " " << a << "->" << b << ": " << route.size()
            << " hops vs dense " << denseHops;
      } else {
        ASSERT_TRUE(route.empty()) << g.name;
      }
    }
  }
  RecordProperty("worst_stretch", std::to_string(worstStretch));
  std::printf("[corpus] worst measured stretch: %.3f (bound %.1f)\n", worstStretch,
              kStretchBound);
}

TEST(HierRouting, NextHopMatchesAppendRoute) {
  for (const GraphSpec& g : corpus()) {
    const auto hier = net::makeTopology(TopologySpec::hierGraph(g));
    for (const auto& [a, b] : samplePairs(hier->numNodes(), 17)) {
      if (a == b) {
        EXPECT_EQ(hier->nextHop(a, b), a) << g.name;
        continue;
      }
      const auto route = net::routeOf(*hier, a, b);
      ASSERT_FALSE(route.empty()) << g.name;
      EXPECT_EQ(hier->nextHop(a, b), route.front().to) << g.name << " " << a << "->" << b;
    }
  }
}

TEST(HierRouting, ArityVariantsAllSatisfyTheBound) {
  const GraphSpec g = net::randomRegularGraph(96, 3, 42);
  const auto dense = net::makeTopology(TopologySpec::graph(g));
  for (int arity : {2, 4, 16}) {
    const auto hier = net::makeTopology(TopologySpec::hierGraph(g, arity));
    for (const auto& [a, b] : samplePairs(96, 3)) {
      const auto route = net::routeOf(*hier, a, b);
      ASSERT_EQ(walkRoute(*hier, a, route), b) << "arity " << arity;
      const int denseHops = dense->distance(a, b);
      if (denseHops > 0) {
        ASSERT_LE(static_cast<double>(route.size()), kStretchBound * denseHops)
            << "arity " << arity << " " << a << "->" << b;
      }
    }
  }
}

TEST(HierRouting, DeterministicAcrossRebuilds) {
  const GraphSpec g = net::randomRegularGraph(128, 4, 5);
  const net::HierGraphTopology t1(g), t2(g);
  EXPECT_EQ(t1.totalBallEntries(), t2.totalBallEntries());
  for (const auto& [a, b] : samplePairs(128, 11))
    EXPECT_EQ(net::routeOf(t1, a, b), net::routeOf(t2, a, b)) << a << "->" << b;
}

TEST(HierRouting, SparseStateIsFarSmallerThanDenseTables) {
  // The point of the scheme: dense next-hop tables are Θ(n²) while the
  // ball arena is near-linear (docs/routing.md tabulates the growth).
  // Doubling n must grow the arena far slower than the 4× of dense
  // tables, and past the kBallMinEntries floor (n ≳ 1000) the arena must
  // be well under n² outright.
  const net::HierGraphTopology small(net::randomRegularGraph(1024, 4, 1234));
  const net::HierGraphTopology big(net::randomRegularGraph(2048, 4, 1234));
  EXPECT_LT(big.totalBallEntries(), small.totalBallEntries() * 3)
      << "arena grew superlinearly: " << small.totalBallEntries() << " -> "
      << big.totalBallEntries();
  EXPECT_LT(big.totalBallEntries() * 4, 2048ull * 2048ull)
      << "ball arena " << big.totalBallEntries() << " entries";
}

TEST(HierRouting, BallTablesHoldSpineInvariantAndStayMemoryNeutral) {
  // Every non-root routing-tree node's ball must see its own landmark and
  // its parent's: the spine-injection invariant the liveness argument in
  // docs/routing.md rests on. The ball tables run at load ≤ 3/4 with
  // 6-byte slots, so routing state stays within the 8 bytes per entry of
  // a padded (node, direction) pair plus fixed per-tree-node overhead.
  const GraphSpec exact = net::randomRegularGraph(512, 4, 1234);
  const GraphSpec other = net::randomRegularGraph(300, 3, 11);
  const net::HierGraphTopology topos[] = {
      net::HierGraphTopology(exact), net::HierGraphTopology(other, 2),
      net::HierGraphTopology(other, 4)};
  for (const net::HierGraphTopology& topo : topos) {
    const net::ClusterTree& tree = topo.routingTree();
    std::size_t entries = 0;
    for (int c = 0; c < tree.numNodes(); ++c) {
      entries += topo.ballSize(c);
      EXPECT_TRUE(topo.ballContains(c, topo.landmarkOf(c)))
          << topo.graphSpec().name << " arity " << topo.routingArity() << " node " << c;
      if (tree.parent(c) < 0) continue;
      EXPECT_TRUE(topo.ballContains(c, topo.landmarkOf(tree.parent(c))))
          << topo.graphSpec().name << " arity " << topo.routingArity() << " node " << c;
    }
    EXPECT_EQ(entries, topo.totalBallEntries()) << topo.graphSpec().name;
    EXPECT_LE(topo.routingBytes(),
              8 * topo.totalBallEntries() + 24 * static_cast<std::size_t>(tree.numNodes()))
        << topo.graphSpec().name << " arity " << topo.routingArity();
  }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: the exact spine fallback, pinned route by route
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds one route's hop sequence into an FNV-1a hash.
std::uint64_t hashRoute(std::uint64_t hash, const std::vector<net::Hop>& route) {
  hash = fnv1a(hash, route.size());
  for (const net::Hop& h : route) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(h.link));
    hash = fnv1a(hash, static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.to)));
  }
  return hash;
}

/// FNV-1a over the hop sequence of every ordered pair's route.
std::uint64_t routeFingerprint(const net::Topology& topo) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  const int n = topo.numNodes();
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b) hash = hashRoute(hash, net::routeOf(topo, a, b));
  return hash;
}

/// Child clusters whose landmark a search from the parent's landmark,
/// restricted to the parent's members, cannot reach. Their spine paths
/// come from the exact whole-graph fallback (n ≤ kExactSpineMaxNodes).
int unreachableChildLandmarks(const net::HierGraphTopology& topo) {
  const net::ClusterTree& tree = topo.routingTree();
  std::vector<std::vector<int>> kids(static_cast<std::size_t>(tree.numNodes()));
  for (int c = 0; c < tree.numNodes(); ++c)
    if (tree.parent(c) >= 0) kids[static_cast<std::size_t>(tree.parent(c))].push_back(c);
  std::vector<char> seen(static_cast<std::size_t>(topo.numNodes()), 0);
  int unreachable = 0;
  for (int p = 0; p < tree.numNodes(); ++p) {
    if (kids[static_cast<std::size_t>(p)].empty()) continue;
    const std::span<const NodeId> mem = tree.members(p);
    std::fill(seen.begin(), seen.end(), 0);
    std::queue<NodeId> q;
    seen[static_cast<std::size_t>(topo.landmarkOf(p))] = 1;
    q.push(topo.landmarkOf(p));
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (int dir = 0; dir < topo.degree(); ++dir) {
        const NodeId v = topo.neighbor(u, dir);
        if (v < 0 || seen[static_cast<std::size_t>(v)] ||
            !std::binary_search(mem.begin(), mem.end(), v))
          continue;
        seen[static_cast<std::size_t>(v)] = 1;
        q.push(v);
      }
    }
    for (int c : kids[static_cast<std::size_t>(p)])
      if (!seen[static_cast<std::size_t>(topo.landmarkOf(c))]) ++unreachable;
  }
  return unreachable;
}

TEST(HierRouting, ExactSpineFallbackRoutesMatchGoldenFingerprints) {
  // Random-regular graphs below kExactSpineMaxNodes whose BFS bisection
  // leaves internally disconnected clusters: the spine to such a child
  // comes from an unrestricted search out of the parent's landmark, and
  // any change to that path (or to ball growth) moves the fingerprint.
  // Regenerate only for a deliberate routing change.
  struct Golden {
    GraphSpec graph;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {net::randomRegularGraph(512, 4, 1234), 0x082ebedbd869131bull},
      {net::randomRegularGraph(768, 3, 7), 0x189f04ac681c8acaull},
  };
  for (const Golden& g : goldens) {
    ASSERT_LE(g.graph.numNodes, net::HierGraphTopology::kExactSpineMaxNodes);
    const net::HierGraphTopology topo(g.graph);
    const int unreachable = unreachableChildLandmarks(topo);
    EXPECT_GT(unreachable, 0) << g.graph.name << " never takes the exact spine fallback";
    const std::uint64_t hash = routeFingerprint(topo);
    std::printf("[fingerprint] %s: %d fallback spines, routes 0x%016llxull\n",
                g.graph.name.c_str(), unreachable, static_cast<unsigned long long>(hash));
    EXPECT_EQ(hash, g.hash) << g.graph.name;
  }
}

TEST(HierRouting, LcaSpineFallbackRoutesMatchGoldenFingerprint) {
  // Above kExactSpineMaxNodes a child landmark unreachable inside its
  // parent's cluster takes the root-SPT tree path through the LCA — the
  // regime the 100k-node scenarios run in. All pairs are too many here,
  // so the fingerprint hashes a fixed seeded sample of routes.
  // Regenerate only for a deliberate routing change.
  const GraphSpec g = net::randomRegularGraph(4608, 4, 1);
  ASSERT_GT(g.numNodes, net::HierGraphTopology::kExactSpineMaxNodes);
  const net::HierGraphTopology topo(g);
  const int unreachable = unreachableChildLandmarks(topo);
  EXPECT_GT(unreachable, 0) << g.name << " never takes the LCA spine fallback";
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  support::SplitMix64 rng(2024);
  for (int i = 0; i < 20'000; ++i) {
    const auto a = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(g.numNodes));
    const auto b = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(g.numNodes));
    hash = hashRoute(hash, net::routeOf(topo, a, b));
  }
  std::printf("[fingerprint] %s: %d fallback spines, sampled routes 0x%016llxull\n",
              g.name.c_str(), unreachable, static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, 0x710934a279838e8bull) << g.name;
}

TEST(HierRouting, DisconnectedGraphIsRejectedByBothRouters) {
  // Two disjoint 4-rings: every router must refuse the spec outright.
  GraphSpec g;
  g.name = "two-rings";
  g.numNodes = 8;
  for (NodeId base : {0, 4})
    for (NodeId i = 0; i < 4; ++i) g.edges.push_back({base + i, base + (i + 1) % 4, 1.0});
  for (const TopologySpec& spec : {TopologySpec::graph(g), TopologySpec::hierGraph(g)}) {
    try {
      (void)net::makeTopology(spec);
      ADD_FAILURE() << spec.describe() << " accepted a disconnected graph";
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("not connected"), std::string::npos)
          << spec.describe() << ": " << e.what();
    }
  }
}

TEST(HierRouting, SpecRoundTripAndDescribe) {
  const TopologySpec s = TopologySpec::hierGraph(net::ringGraph(12), 4);
  EXPECT_EQ(s.hierArity, 4);
  const auto topo = net::makeTopology(s);
  EXPECT_TRUE(topo->spec() == s);
  EXPECT_NE(topo->spec().describe().find("-hier4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Strategy-level differential runs: dense vs hierarchical machine
// ---------------------------------------------------------------------------

/// Run one read to completion (test-driver idiom of strategy_test.cpp).
std::int64_t readInt(Machine& m, Runtime& rt, NodeId p, VarId x) {
  std::int64_t out = 0;
  sim::spawn([](Runtime& r, NodeId n, VarId v, std::int64_t& o) -> sim::Task<> {
    o = valueAs<std::int64_t>(co_await r.read(n, v));
  }(rt, p, x, out));
  m.engine.run();
  return out;
}

void writeInt(Machine& m, Runtime& rt, NodeId p, VarId x, std::int64_t v) {
  sim::spawn([](Runtime& r, NodeId n, VarId var, std::int64_t val) -> sim::Task<> {
    co_await r.write(n, var, makeValue(val));
  }(rt, p, x, v));
  m.engine.run();
}

/// Drive the same seeded race-free op sequence on both machines and
/// assert every read observes the same value — routing must be invisible
/// to strategy semantics.
void runDifferential(const TopologySpec& denseSpec, const TopologySpec& hierSpec,
                     const RuntimeConfig& config, std::uint64_t seed) {
  Machine md(denseSpec), mh(hierSpec);
  Runtime rd(md, config), rh(mh, config);
  const int n = md.numProcs();
  constexpr int kVars = 6;
  std::vector<VarId> vd, vh;
  for (int i = 0; i < kVars; ++i) {
    const NodeId owner = static_cast<NodeId>((i * 7) % n);
    vd.push_back(rd.createVarFree(owner, makeValue<std::int64_t>(i)));
    vh.push_back(rh.createVarFree(owner, makeValue<std::int64_t>(i)));
  }
  support::SplitMix64 rng(seed);
  for (int op = 0; op < 200; ++op) {
    const auto p = static_cast<NodeId>(rng.next() % static_cast<std::uint64_t>(n));
    const int i = static_cast<int>(rng.next() % kVars);
    if (rng.next() % 4 == 0) {
      const auto val = static_cast<std::int64_t>(rng.next() % 100000);
      writeInt(md, rd, p, vd[i], val);
      writeInt(mh, rh, p, vh[i], val);
    } else {
      const std::int64_t a = readInt(md, rd, p, vd[i]);
      const std::int64_t b = readInt(mh, rh, p, vh[i]);
      ASSERT_EQ(a, b) << "read divergence at op " << op;
    }
  }
  rd.checkAllInvariants();
  rh.checkAllInvariants();
  for (int i = 0; i < kVars; ++i)
    EXPECT_EQ(valueAs<std::int64_t>(rd.peek(vd[i])), valueAs<std::int64_t>(rh.peek(vh[i])));
}

TEST(HierRouting, AccessTreeEquivalentToDenseRouting) {
  const GraphSpec g = net::randomRegularGraph(48, 3, 21);
  runDifferential(TopologySpec::graph(g), TopologySpec::hierGraph(g),
                  RuntimeConfig::accessTree(4, 1), 77);
}

TEST(HierRouting, FixedHomeEquivalentToDenseRouting) {
  const GraphSpec g = net::fatTreeGraph(3, 4);
  runDifferential(TopologySpec::graph(g), TopologySpec::hierGraph(g),
                  RuntimeConfig::fixedHome(), 78);
}

TEST(HierRouting, StrategiesQuiesceOnHierCorpusWorkload) {
  workload::WorkloadSpec spec;
  spec.name = "hier-quiesce";
  spec.numObjects = 16;
  spec.seed = 5;
  spec.phases.push_back({});
  spec.phases[0].rounds = 6;
  spec.phases[0].readFraction = 0.75;
  spec.phases[0].zipfS = 1.0;
  spec.validate();
  for (const GraphSpec& g :
       {net::ringGraph(33), net::gridGraph(6, 7), net::randomRegularGraph(64, 3, 9)}) {
    for (const RuntimeConfig& cfg :
         {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
      // runOn drains between phases and the runtime checks protocol
      // invariants for every live variable at quiescence.
      const workload::WorkloadReport r =
          workload::runOn(TopologySpec::hierGraph(g), cfg, spec);
      EXPECT_GT(r.injected, 0u) << g.name;
      EXPECT_EQ(r.availability, 1.0) << g.name;
    }
  }
}

TEST(HierRouting, QuiescesUnderLinkFailures) {
  // Sever and restore real edges of the graph mid-phase: the protocols
  // must stay live (detour/park machinery) and the invariants must hold
  // at quiescence on the hierarchical machine, exactly as on dense.
  const GraphSpec g = net::randomRegularGraph(48, 3, 11);
  workload::WorkloadSpec spec;
  spec.name = "hier-faults";
  spec.numObjects = 12;
  spec.seed = 13;
  spec.phases.push_back({});
  spec.phases[0].rounds = 8;
  spec.phases[0].readFraction = 0.7;
  spec.phases[0].thinkMeanUs = 40.0;
  spec.phases[0].faults = {
      {net::FaultEvent::Kind::LinkDown, 50.0, g.edges[0].u, g.edges[0].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkDown, 80.0, g.edges[5].u, g.edges[5].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkUp, 400.0, g.edges[0].u, g.edges[0].v, 1.0, 1.0},
      {net::FaultEvent::Kind::LinkUp, 500.0, g.edges[5].u, g.edges[5].v, 1.0, 1.0},
  };
  spec.validate();
  for (const RuntimeConfig& cfg :
       {RuntimeConfig::accessTree(4, 1), RuntimeConfig::fixedHome()}) {
    const workload::WorkloadReport r =
        workload::runOn(TopologySpec::hierGraph(g), cfg, spec);
    EXPECT_GT(r.injected, 0u);
    EXPECT_GE(r.availability, 0.99);  // link faults detour, ops don't fail
  }
}

}  // namespace
}  // namespace diva
