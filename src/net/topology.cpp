#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "net/graph_topology.hpp"
#include "net/hier_routing.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"
#include "net/torus_topology.hpp"
#include "support/rng.hpp"

namespace diva::net {

const char* topologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Mesh2D: return "mesh2d";
    case TopologyKind::Torus2D: return "torus2d";
    case TopologyKind::Hypercube: return "hypercube";
    case TopologyKind::Graph: return "graph";
  }
  return "?";
}

std::string TopologySpec::describe() const {
  std::ostringstream os;
  os << topologyKindName(kind);
  if (kind == TopologyKind::Hypercube) {
    os << '-' << a << 'd';
  } else if (kind == TopologyKind::Graph) {
    os << '-' << (graphSpec ? graphSpec->name : std::string("unset"));
    if (hierArity > 0) os << "-hier" << hierArity;
  } else {
    os << '-' << a << 'x' << b;
  }
  return os.str();
}

ClusterTree::ClusterTree(int numProcs, std::vector<NodeId> members, Grid grid,
                         DecompParams params, const Bisect& bisect) {
  DIVA_CHECK_MSG(params.arity == 2 || params.arity == 4 || params.arity == 16,
                 "arity must be 2, 4 or 16");
  DIVA_CHECK_MSG(params.leafSize >= 1, "leafSize must be >= 1");
  const int levels = std::countr_zero(static_cast<unsigned>(params.arity));
  leafOfProc_.assign(numProcs, -1);
  rankOfProc_.assign(numProcs, -1);
  // Every internal node has two or more children: fewer than 2n nodes.
  nodes_.reserve(2 * members.size());
  extent_.reserve(2 * members.size());
  build(Part{members, grid}, -1, -1, 0, params.leafSize, levels, bisect);
  DIVA_CHECK_MSG(maxDepth_ < kMaxDepth, "cluster tree deeper than " << kMaxDepth << " levels");
}

std::unique_ptr<ClusterTree> ClusterTree::ofGrid(int rows, int cols, DecompParams params) {
  std::vector<NodeId> all(static_cast<std::size_t>(rows) * cols);
  std::iota(all.begin(), all.end(), NodeId{0});
  return std::make_unique<ClusterTree>(
      rows * cols, std::move(all), Grid{rows, cols}, params,
      [](std::span<NodeId> members, Grid g) {
        // The top rows are already a prefix of the row-major order.
        if (g.rows >= g.cols) return Grid{(g.rows + 1) / 2, g.cols};
        const int left = (g.cols + 1) / 2;
        const std::vector<NodeId> rowMajor(members.begin(), members.end());
        auto out = members.begin();
        for (const auto& [from, to] : {std::pair{0, left}, std::pair{left, g.cols}})
          for (int r = 0; r < g.rows; ++r)
            for (int c = from; c < to; ++c)
              *out++ = rowMajor[static_cast<std::size_t>(r) * g.cols + c];
        return Grid{g.rows, left};
      });
}

int ClusterTree::build(Part c, int parent, int indexInParent, int depth, int leafSize,
                       int levels, const Bisect& bisect) {
  const int self = numNodes();
  const int size = static_cast<int>(c.members.size());
  DIVA_CHECK(size >= 1 && size == c.grid.rows * c.grid.cols);
  nodes_.push_back(Node{parent, indexInParent, {}, depth, size});
  extent_.push_back(Extent{members_.size(), c.grid});
  members_.insert(members_.end(), c.members.begin(), c.members.end());
  maxDepth_ = std::max(maxDepth_, depth);
  if (size == 1) {
    // Preorder numbering reaches the leaves in left-to-right order.
    const NodeId p = c.members.front();
    DIVA_CHECK_MSG(p >= 0 && p < numProcs() && leafOfProc_[p] < 0,
                   "processor " << p << " has no unique leaf");
    leafOfProc_[p] = self;
    rankOfProc_[p] = static_cast<int>(leafOrder_.size());
    leafOrder_.push_back(self);
    return self;
  }

  std::vector<Part> children;
  if (size <= leafSize) {
    // ℓ-k-ary termination: one child per processor, in id order.
    children.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
      children.push_back(Part{c.members.subspan(i, 1), Grid{1, 1}});
  } else {
    children.reserve(std::size_t{1} << levels);
    expand(c, levels, bisect, children);
  }
  nodes_[self].children.reserve(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    const int child =
        build(children[i], self, static_cast<int>(i), depth + 1, leafSize, levels, bisect);
    nodes_[self].children.push_back(child);
  }
  return self;
}

void ClusterTree::expand(Part c, int levels, const Bisect& bisect, std::vector<Part>& out) {
  if (levels == 0 || c.members.size() == 1) {
    out.push_back(c);
    return;
  }
  const Grid a = bisect(c.members, c.grid);
  const Grid b = a.cols == c.grid.cols ? Grid{c.grid.rows - a.rows, c.grid.cols}
                                       : Grid{c.grid.rows, c.grid.cols - a.cols};
  const std::size_t first = static_cast<std::size_t>(a.rows) * a.cols;
  DIVA_CHECK_MSG(a.rows >= 1 && a.cols >= 1 && b.rows >= 1 && b.cols >= 1 &&
                     first + static_cast<std::size_t>(b.rows) * b.cols == c.members.size(),
                 "bisection did not split the cluster");
  expand(Part{c.members.first(first), a}, levels - 1, bisect, out);
  expand(Part{c.members.subspan(first), b}, levels - 1, bisect, out);
}

NodeId ClusterTree::hostOf(int treeNode, std::uint64_t varKey, EmbeddingKind kind,
                           std::uint64_t seed) const {
  const Extent& at = extent_[treeNode];
  if (at.grid.rows * at.grid.cols == 1) return members_[at.begin];

  // Random hashes the node's own cell. Regular hashes the root's cell and
  // carries it down the ancestor chain: a node whose parent sits at
  // relative position (i, j) takes (i mod rows, j mod cols) of its own
  // grid — the paper's (i mod m1, j mod m2) rule.
  int chain[kMaxDepth];
  int len = 0;
  int top = treeNode;
  std::uint64_t key = 0;
  if (kind == EmbeddingKind::Random) {
    key = support::hashCombine(seed, varKey, static_cast<std::uint64_t>(treeNode));
  } else {
    for (; nodes_[top].parent >= 0; top = nodes_[top].parent) chain[len++] = top;
    key = support::hashCombine(seed, varKey);
  }
  // Every index is below the root's member count, so the reductions down
  // the chain run in 32 bits.
  const Grid& from = extent_[top].grid;
  auto row = static_cast<std::uint32_t>(
      support::hashBelow(key, static_cast<std::uint64_t>(from.rows)));
  auto col = static_cast<std::uint32_t>(support::hashBelow(
      support::hashCombine(key, 0x5eedull), static_cast<std::uint64_t>(from.cols)));
  while (len > 0) {
    const Grid& g = extent_[chain[--len]].grid;
    row %= static_cast<std::uint32_t>(g.rows);
    col %= static_cast<std::uint32_t>(g.cols);
  }
  return members_[at.begin + static_cast<std::size_t>(row) * at.grid.cols + col];
}

int ClusterTree::childToward(int treeNode, NodeId p) const {
  int cur = leafOf(p);
  while (cur >= 0) {
    const int par = nodes_[cur].parent;
    if (par == treeNode) return cur;
    cur = par;
  }
  return -1;
}

std::unique_ptr<Topology> makeTopology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::Mesh2D:
      DIVA_CHECK_MSG(spec.a >= 1 && spec.b >= 1,
                     "mesh2d sides must be positive (got " << spec.a << "x" << spec.b
                                                           << ")");
      return std::make_unique<MeshTopology>(spec.a, spec.b);
    case TopologyKind::Torus2D:
      DIVA_CHECK_MSG(spec.a >= 1 && spec.b >= 1,
                     "torus2d sides must be positive (got " << spec.a << "x" << spec.b
                                                            << ")");
      return std::make_unique<TorusTopology>(spec.a, spec.b);
    case TopologyKind::Hypercube:
      DIVA_CHECK_MSG(spec.a >= 0 && spec.a <= 20,
                     "hypercube dimension must be in [0, 20] (got " << spec.a << ")");
      return std::make_unique<HypercubeTopology>(spec.a);
    case TopologyKind::Graph:
      DIVA_CHECK_MSG(spec.graphSpec != nullptr, "graph topology spec without a graph");
      if (spec.hierArity > 0)
        return std::make_unique<HierGraphTopology>(spec.graphSpec, spec.hierArity);
      return std::make_unique<GraphTopology>(spec.graphSpec);
  }
  DIVA_CHECK_MSG(false, "unknown topology kind");
  return nullptr;
}

std::vector<NodeId> canonicalLeafOrder(const Topology& topo) {
  const auto tree = topo.decompose(DecompParams{2, 1});
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(topo.numNodes()));
  for (int leaf : tree->leafOrder()) order.push_back(tree->procOfLeaf(leaf));
  return order;
}

std::vector<Hop> routeOf(const Topology& topo, NodeId from, NodeId to) {
  RouteVec buf;
  topo.appendRoute(from, to, buf);
  return std::vector<Hop>(buf.begin(), buf.end());
}

}  // namespace diva::net
