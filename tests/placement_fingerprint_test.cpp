// Golden placement fingerprints: every cluster tree's shape and every
// access-tree node's host, pinned over meshes, a torus, hypercubes and
// graphs (dense, hierarchical and one shrunk by a node removal) under the
// ℓ-ary and ℓ-k-ary decompositions. A refactor of the decomposition or
// the embedding must leave both fingerprints unchanged; regenerate them
// only for a deliberate change of the model, from the build before it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "net/member_graph.hpp"
#include "net/topology.hpp"

namespace diva {
namespace {

using net::TopologySpec;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t word(int v) { return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)); }

/// The pinned shapes, in a fixed order.
std::vector<std::unique_ptr<net::Topology>> shapes() {
  std::vector<std::unique_ptr<net::Topology>> out;
  for (const TopologySpec& spec :
       {TopologySpec::mesh2d(8, 8), TopologySpec::mesh2d(4, 3), TopologySpec::mesh2d(5, 9),
        TopologySpec::mesh2d(1, 7), TopologySpec::torus2d(4, 6)})
    out.push_back(net::makeTopology(spec));
  for (int d = 0; d <= 6; ++d) out.push_back(net::makeTopology(TopologySpec::hypercube(d)));
  out.push_back(net::makeTopology(TopologySpec::graph(net::ringGraph(64))));
  out.push_back(net::makeTopology(TopologySpec::graph(net::randomRegularGraph(64, 4, 1))));
  out.push_back(net::makeTopology(TopologySpec::graph(net::fatTreeGraph(2, 4))));
  out.push_back(net::makeTopology(
      TopologySpec::hierGraph(net::randomRegularGraph(512, 4, 3))));
  // A graph that lost node 17: retired ids keep their slot but get no
  // leaf, so the tree covers fewer processors than the id space.
  const net::GraphTopology full(net::randomRegularGraph(64, 4, 1));
  net::MemberGraph shrunk(full);
  shrunk.removeNode(17, 0);
  out.push_back(std::make_unique<net::GraphTopology>(shrunk.graph()));
  return out;
}

const net::DecompParams kParams[] = {{2, 1}, {4, 1}, {16, 1}, {2, 4}, {4, 16}};

TEST(Placement, HostsMatchGoldenFingerprint) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const auto& topo : shapes()) {
    for (const net::DecompParams& params : kParams) {
      const auto tree = topo->decompose(params);
      for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random})
        for (const std::uint64_t seed : {1ull, 42ull})
          for (int i = 0; i < tree->numNodes(); ++i)
            for (std::uint64_t var = 0; var < 256; ++var)
              hash = fnv1a(hash, word(tree->hostOf(i, var, kind, seed)));
    }
  }
  std::printf("[fingerprint] placement 0x%016llxull\n", static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, 0xe967f9077d0fbd8aull);
}

TEST(Placement, TreeShapesMatchGoldenFingerprint) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const auto& topo : shapes()) {
    for (const net::DecompParams& params : kParams) {
      const auto tree = topo->decompose(params);
      hash = fnv1a(hash, word(tree->numNodes()));
      for (int i = 0; i < tree->numNodes(); ++i) {
        const net::ClusterTree::Node& nd = tree->node(i);
        hash = fnv1a(hash, word(nd.parent));
        hash = fnv1a(hash, word(nd.indexInParent));
        hash = fnv1a(hash, word(nd.depth));
        hash = fnv1a(hash, word(nd.size));
      }
      for (int leaf : tree->leafOrder()) {
        hash = fnv1a(hash, word(leaf));
        hash = fnv1a(hash, word(tree->procOfLeaf(leaf)));
      }
    }
  }
  std::printf("[fingerprint] tree shape 0x%016llxull\n",
              static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, 0x7dc43fba77b71f59ull);
}

TEST(Placement, HostsLieOnTheirLeafChain) {
  // A tree node's host is a member of its cluster, so the node lies on
  // the host's leaf-to-root chain. AccessTreeStrategy::tryEvict finds the
  // nodes a processor hosts by walking that one chain; this pins the
  // invariant it relies on, here also on a hierarchical graph that lost
  // a node.
  std::vector<std::unique_ptr<net::Topology>> topos = shapes();
  const net::HierGraphTopology hier(net::randomRegularGraph(512, 4, 3));
  net::MemberGraph shrunk(hier);
  shrunk.removeNode(17, 0);
  std::unique_ptr<net::Topology> hierShrunk = hier.withGraph(shrunk.graph());
  ASSERT_NE(hierShrunk, nullptr);
  topos.push_back(std::move(hierShrunk));

  std::uint64_t checked = 0;
  for (std::size_t t = 0; t < topos.size(); ++t) {
    for (const net::DecompParams& params : kParams) {
      const auto tree = topos[t]->decompose(params);
      for (const auto kind : {net::EmbeddingKind::Regular, net::EmbeddingKind::Random})
        for (const std::uint64_t seed : {1ull, 42ull})
          for (int n = 0; n < tree->numNodes(); ++n)
            for (std::uint64_t var = 0; var < 256; ++var) {
              const net::NodeId host = tree->hostOf(n, var, kind, seed);
              int a = tree->leafOf(host);
              while (a >= 0 && a != n) a = tree->parent(a);
              ASSERT_EQ(a, n) << "shape " << t << " arity " << params.arity
                              << " leafSize " << params.leafSize << " seed " << seed
                              << ": tree node " << n << " of variable " << var
                              << " is hosted at " << host << ", off its leaf chain";
              ++checked;
            }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace diva
