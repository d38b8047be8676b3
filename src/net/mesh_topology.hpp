#pragma once

#include <memory>

#include "mesh/mesh.hpp"
#include "mesh/route.hpp"
#include "net/topology.hpp"

namespace diva::net {

/// The 2-D mesh of the Parsytec GCel — the paper's machine. Dimension-order
/// routing (columns then rows) with arithmetic-only route expansion; this
/// is the hot-path topology and must stay allocation-free.
class MeshTopology : public Topology {
 public:
  MeshTopology(int rows, int cols) : grid_(rows, cols) {}

  /// Grid-coordinate access for 2-D-structured applications (matmul's
  /// block layout, congestion heat maps).
  const mesh::Mesh& grid() const { return grid_; }

  TopologyKind kind() const override { return TopologyKind::Mesh2D; }
  TopologySpec spec() const override {
    return TopologySpec::mesh2d(grid_.rows(), grid_.cols());
  }
  int numNodes() const override { return grid_.numNodes(); }
  int degree() const override { return mesh::Mesh::kDirs; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= mesh::Mesh::kDirs) return -1;
    const auto d = static_cast<mesh::Mesh::Dir>(dir);
    return grid_.hasNeighbor(n, d) ? grid_.neighbor(n, d) : -1;
  }

  NodeId nextHop(NodeId from, NodeId to) const override {
    const mesh::Coord src = grid_.coordOf(from), dst = grid_.coordOf(to);
    if (src.col != dst.col) return src.col < dst.col ? from + 1 : from - 1;
    if (src.row != dst.row)
      return src.row < dst.row ? from + grid_.cols() : from - grid_.cols();
    return from;
  }

  int distance(NodeId a, NodeId b) const override { return grid_.distance(a, b); }

  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override {
    mesh::appendDimensionOrderRoute(grid_, from, to, out);
  }

  /// Clusters are submeshes, split by halving the longer side.
  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return ClusterTree::ofGrid(grid_.rows(), grid_.cols(), params);
  }

 protected:
  mesh::Mesh grid_;
};

}  // namespace diva::net
