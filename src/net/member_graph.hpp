#pragma once

#include <cstdint>
#include <vector>

#include "net/fault.hpp"
#include "net/topology.hpp"

namespace diva::net {

/// The logical shape of an elastic machine (docs/faults.md
/// "Reconfiguration"): which node ids are members, and — once the first
/// structural event has been applied — the member-only graph. Node ids
/// are append-only: `addNode` takes the next id, `removeNode` retires an
/// id for good.
///
/// This value type owns the rules for which structural events a machine
/// accepts. The Network applies live events through it; the workload
/// driver replays a scenario's events on a copy before the run starts,
/// so both reject exactly the same scripts with the same messages.
///
/// The edge list is copied out of the topology lazily, at the first
/// mutation, so copying a never-reshaped MemberGraph copies no edges.
class MemberGraph {
 public:
  /// Every node of `topo` is a member. `topo` must outlive the first
  /// mutation (closed-form topologies reject every mutation).
  explicit MemberGraph(const Topology& topo);

  /// Node-id space, retired ids included.
  int numNodes() const { return static_cast<int>(member_.size()); }
  int numMembers() const { return static_cast<int>(members_.size()); }
  bool member(NodeId n) const {
    return n >= 0 && static_cast<std::size_t>(n) < member_.size() &&
           member_[static_cast<std::size_t>(n)] != 0;
  }
  /// Per-id membership flags (1 = member, 0 = retired).
  const std::vector<std::uint8_t>& memberFlags() const { return member_; }
  /// Member ids, ascending.
  const std::vector<NodeId>& members() const { return members_; }
  /// The member-only graph; meaningful once a mutation has been applied.
  const GraphSpec& graph() const { return graph_; }
  /// Are u and v joined by an edge? Asked of the topology until the
  /// first mutation, of the member-only graph after it.
  bool adjacent(NodeId u, NodeId v) const;

  /// Apply one structural event (`isStructural(ev.kind)`) through the
  /// matching mutation below. Returns the edges a `remove-node` severed
  /// (empty for the other kinds).
  std::vector<GraphSpec::Edge> apply(const FaultEvent& ev);

  // The mutations validate against the current shape and throw
  // CheckError naming the event (and its scenario line when `line` > 0).

  /// Join a new node to member `anchor`; returns its id.
  NodeId addNode(NodeId anchor, double weight, double latency, int line);
  /// Retire member `n`; rejects removals that would empty or disconnect
  /// the member set. Returns the severed edges.
  std::vector<GraphSpec::Edge> removeNode(NodeId n, int line);
  /// Add an edge between distinct, non-adjacent members.
  void addLink(NodeId u, NodeId v, double weight, double latency, int line);
  /// Remove the edge u—v; rejects cuts that would disconnect the member set.
  void removeLink(NodeId u, NodeId v, int line);

 private:
  void ensureGraph(int line);
  bool connectedWithout(NodeId dropNode, NodeId dropU, NodeId dropV) const;

  const Topology* source_;  ///< read once, by the first mutation
  bool hasGraph_ = false;
  GraphSpec graph_;
  std::vector<std::uint8_t> member_;
  std::vector<NodeId> members_;
};

}  // namespace diva::net
