// Tests for the hierarchical mesh decomposition and the access-tree
// embeddings (paper §2, Figure 1), through net::MeshTopology::decompose.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mesh/mesh.hpp"
#include "net/mesh_topology.hpp"

namespace diva {
namespace {

using mesh::Coord;
using mesh::Mesh;
using net::DecompParams;
using net::EmbeddingKind;
using net::NodeId;

std::vector<NodeId> membersOf(const net::ClusterTree& t, int node) {
  const auto m = t.members(node);
  return {m.begin(), m.end()};
}

/// The cluster of `node` as a submesh: its members are exactly the
/// rows × cols rectangle anchored at its first member, row-major.
bool isSubmesh(const Mesh& m, const net::ClusterTree& t, int node) {
  const auto mem = t.members(node);
  const Coord origin = m.coordOf(mem.front());
  for (int r = 0; r < t.rowsOf(node); ++r)
    for (int c = 0; c < t.colsOf(node); ++c)
      if (origin.row + r >= m.rows() || origin.col + c >= m.cols() ||
          mem[static_cast<std::size_t>(r * t.colsOf(node) + c)] !=
              m.nodeAt(origin.row + r, origin.col + c))
        return false;
  return true;
}

TEST(Decomposition, PaperFigure1_M4x3) {
  // The paper's example: M(4,3) under the 2-ary decomposition. Level 1
  // splits the 4-row side into two 2x3 submeshes.
  const auto d = net::MeshTopology(4, 3).decompose(DecompParams{2, 1});
  const auto& root = d->node(d->root());
  EXPECT_EQ(membersOf(*d, d->root()),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(d->rowsOf(d->root()), 4);
  EXPECT_EQ(d->colsOf(d->root()), 3);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(membersOf(*d, root.children[0]), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(membersOf(*d, root.children[1]), (std::vector<NodeId>{6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(d->rowsOf(root.children[0]), 2);
  EXPECT_EQ(d->colsOf(root.children[0]), 3);
  // Level 2 splits each 2x3 along the 3-column side: 2x2 and 2x1.
  const auto& c0 = d->node(root.children[0]);
  ASSERT_EQ(c0.children.size(), 2u);
  EXPECT_EQ(membersOf(*d, c0.children[0]), (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_EQ(d->rowsOf(c0.children[0]), 2);
  EXPECT_EQ(d->colsOf(c0.children[0]), 2);
  EXPECT_EQ(membersOf(*d, c0.children[1]), (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(d->rowsOf(c0.children[1]), 2);
  EXPECT_EQ(d->colsOf(c0.children[1]), 1);
}

struct ShapeCase {
  int rows, cols, arity, leafSize;
};

class DecompositionProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DecompositionProperty, PartitionInvariants) {
  const auto [rows, cols, arity, leafSize] = GetParam();
  const Mesh m(rows, cols);
  const auto d = net::MeshTopology(rows, cols).decompose(DecompParams{arity, leafSize});

  int leaves = 0;
  for (int i = 0; i < d->numNodes(); ++i) {
    const auto& n = d->node(i);
    EXPECT_GT(n.size, 0);
    EXPECT_EQ(d->rowsOf(i) * d->colsOf(i), n.size);
    EXPECT_TRUE(isSubmesh(m, *d, i)) << "tree node " << i << " is not a submesh";
    if (n.isLeaf()) {
      EXPECT_EQ(n.size, 1);
      ++leaves;
      continue;
    }
    // Children tile the parent exactly (disjoint cover).
    std::vector<NodeId> covered;
    for (int c : n.children) {
      const auto cm = d->members(c);
      covered.insert(covered.end(), cm.begin(), cm.end());
      EXPECT_EQ(d->node(c).parent, i);
    }
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, membersOf(*d, i));
    // Arity bound: at most `arity` children, except k-terminated nodes
    // which have exactly size (≤ leafSize) children.
    if (n.size <= leafSize) {
      EXPECT_EQ(static_cast<int>(n.children.size()), n.size);
    } else {
      EXPECT_LE(static_cast<int>(n.children.size()), arity);
      EXPECT_GE(static_cast<int>(n.children.size()), 2);
    }
  }
  EXPECT_EQ(leaves, m.numNodes());

  // Every processor has a distinct leaf and leafOrder is a permutation.
  std::set<NodeId> seen;
  for (int w = 0; w < m.numNodes(); ++w) {
    const NodeId p = d->procOfRank(w);
    EXPECT_TRUE(seen.insert(p).second);
    EXPECT_EQ(d->rankOf(p), w);
    EXPECT_EQ(d->leafOf(p), d->leafOrder()[w]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompositionProperty,
    ::testing::Values(ShapeCase{4, 4, 2, 1}, ShapeCase{4, 4, 4, 1},
                      ShapeCase{8, 8, 16, 1}, ShapeCase{16, 16, 4, 1},
                      ShapeCase{4, 3, 2, 1}, ShapeCase{1, 7, 2, 1},
                      ShapeCase{5, 9, 4, 1}, ShapeCase{8, 8, 2, 4},
                      ShapeCase{8, 8, 4, 16}, ShapeCase{16, 16, 4, 8},
                      ShapeCase{8, 16, 4, 1}, ShapeCase{32, 32, 4, 1}));

TEST(Decomposition, FourAryIsTwoArySkippingLevels) {
  const net::MeshTopology topo(8, 8);
  const auto d2 = topo.decompose(DecompParams{2, 1});
  const auto d4 = topo.decompose(DecompParams{4, 1});
  // Every 4-ary node's cluster appears at an even depth of the 2-ary tree.
  std::set<std::vector<NodeId>> evenClusters;
  for (int i = 0; i < d2->numNodes(); ++i)
    if (d2->depthOf(i) % 2 == 0) evenClusters.insert(membersOf(*d2, i));
  for (int i = 0; i < d4->numNodes(); ++i)
    EXPECT_TRUE(evenClusters.contains(membersOf(*d4, i)))
        << "4-ary cluster not on an even 2-ary level";
}

TEST(Decomposition, LeafSizeTerminationGivesPerProcessorChildren) {
  const auto d = net::MeshTopology(8, 8).decompose(DecompParams{2, 4});
  for (int i = 0; i < d->numNodes(); ++i) {
    const auto& n = d->node(i);
    if (n.size > 1 && n.size <= 4) {
      ASSERT_EQ(n.children.size(), static_cast<std::size_t>(n.size));
      for (int c : n.children) EXPECT_TRUE(d->node(c).isLeaf());
    }
  }
}

TEST(Decomposition, FullMeshLeafSizeIsPary) {
  // k = P gives the root P children — the paper's P-ary tree remark.
  const auto d = net::MeshTopology(4, 4).decompose(DecompParams{4, 16});
  EXPECT_EQ(d->node(d->root()).children.size(), 16u);
  EXPECT_EQ(d->maxDepth(), 1);
}

TEST(CanonicalLeafOrder, IsAPermutationAndLocal) {
  Mesh m(8, 8);
  const auto order = net::canonicalLeafOrder(net::MeshTopology(8, 8));
  std::set<NodeId> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 64u);
  // Locality: consecutive ranks are close in the mesh (within the 2-ary
  // decomposition, rank neighbours share a small submesh). The first and
  // second half occupy disjoint halves of the mesh.
  for (int w = 0; w + 1 < 64; ++w)
    EXPECT_LE(m.distance(order[w], order[w + 1]), 8);
}

class EmbeddingProperty : public ::testing::TestWithParam<EmbeddingKind> {};

TEST_P(EmbeddingProperty, HostsLieInTheirSubmesh) {
  const auto d = net::MeshTopology(8, 8).decompose(DecompParams{4, 1});
  for (std::uint64_t x : {1ull, 2ull, 99ull, 12345ull}) {
    for (int n = 0; n < d->numNodes(); ++n) {
      const auto mem = d->members(n);
      EXPECT_TRUE(std::binary_search(mem.begin(), mem.end(), d->hostOf(n, x, GetParam(), 42)))
          << "tree node " << n << " hosted outside its submesh";
    }
    // Leaves host their own processor.
    for (NodeId p = 0; p < 64; ++p) EXPECT_EQ(d->hostOf(d->leafOf(p), x, GetParam(), 42), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EmbeddingProperty,
                         ::testing::Values(EmbeddingKind::Regular,
                                           EmbeddingKind::Random));

TEST(Embedding, DifferentVariablesGetDifferentRoots) {
  const auto d = net::MeshTopology(16, 16).decompose(DecompParams{4, 1});
  std::set<NodeId> roots;
  for (std::uint64_t x = 0; x < 64; ++x)
    roots.insert(d->hostOf(d->root(), x, EmbeddingKind::Regular, 7));
  // 64 draws over 256 processors: expect substantial spread.
  EXPECT_GT(roots.size(), 32u);
}

TEST(Embedding, RegularEmbeddingIsParentRelative) {
  // The child of a node hosted at relative position (i, j) sits at
  // (i mod m1, j mod m2) of the child submesh (paper §2, "practical
  // improvements").
  const Mesh m(8, 8);
  const auto d = net::MeshTopology(8, 8).decompose(DecompParams{2, 1});
  auto origin = [&](int n) { return m.coordOf(d->members(n).front()); };
  for (std::uint64_t x = 1; x < 16; ++x) {
    for (int n = 0; n < d->numNodes(); ++n) {
      const int parent = d->parent(n);
      if (parent < 0) continue;
      const Coord pc = m.coordOf(d->hostOf(parent, x, EmbeddingKind::Regular, 3));
      const Coord cc = m.coordOf(d->hostOf(n, x, EmbeddingKind::Regular, 3));
      EXPECT_EQ(cc.row - origin(n).row, (pc.row - origin(parent).row) % d->rowsOf(n));
      EXPECT_EQ(cc.col - origin(n).col, (pc.col - origin(parent).col) % d->colsOf(n));
    }
  }
}

TEST(Embedding, DeterministicAcrossInstances) {
  const net::MeshTopology topo(8, 8);
  const auto a = topo.decompose(DecompParams{4, 1});
  const auto b = topo.decompose(DecompParams{4, 1});
  for (int n = 0; n < a->numNodes(); ++n)
    EXPECT_EQ(a->hostOf(n, 5, EmbeddingKind::Random, 11),
              b->hostOf(n, 5, EmbeddingKind::Random, 11));
  int differs = 0;
  for (int n = 0; n < a->numNodes(); ++n)
    differs += a->hostOf(n, 5, EmbeddingKind::Random, 11) !=
               a->hostOf(n, 5, EmbeddingKind::Random, 12);
  EXPECT_GT(differs, 0);
}

}  // namespace
}  // namespace diva
