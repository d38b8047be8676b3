#pragma once

#include <memory>

#include "net/topology.hpp"

namespace diva::net {

/// d-dimensional hypercube (2^d nodes, node ids are coordinate bit
/// strings). Direction slot i is the link flipping bit i. Routing is
/// e-cube (dimension-order): correct differing bits from dimension 0
/// upward — the deterministic shortest path, one bit flip per hop.
class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(int dims);

  int dims() const { return dims_; }

  TopologyKind kind() const override { return TopologyKind::Hypercube; }
  TopologySpec spec() const override { return TopologySpec::hypercube(dims_); }
  int numNodes() const override { return 1 << dims_; }
  int degree() const override { return dims_; }

  NodeId neighbor(NodeId n, int dir) const override {
    if (dir < 0 || dir >= dims_) return -1;
    return n ^ (NodeId{1} << dir);
  }

  NodeId nextHop(NodeId from, NodeId to) const override;
  int distance(NodeId a, NodeId b) const override;
  void appendRoute(NodeId from, NodeId to, RouteVec& out) const override;

  /// Clusters are subcubes: the grid split of a 2^d × 1 column fixes the
  /// highest free dimension first, so every cluster is a contiguous id
  /// range and the canonical leaf order is the numeric node order.
  std::unique_ptr<ClusterTree> decompose(DecompParams params) const override {
    return ClusterTree::ofGrid(numNodes(), 1, params);
  }

 private:
  int dims_;
};

}  // namespace diva::net
