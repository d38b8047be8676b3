#include "net/member_graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace diva::net {

namespace {
bool sameEdge(const GraphSpec::Edge& e, NodeId u, NodeId v) {
  return (e.u == u && e.v == v) || (e.u == v && e.v == u);
}
}  // namespace

MemberGraph::MemberGraph(const Topology& topo)
    : source_(&topo),
      member_(static_cast<std::size_t>(topo.numNodes()), 1),
      members_(static_cast<std::size_t>(topo.numNodes())) {
  for (std::size_t n = 0; n < members_.size(); ++n) members_[n] = static_cast<NodeId>(n);
}

std::vector<GraphSpec::Edge> MemberGraph::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::AddNode:
      addNode(ev.a, ev.weightMul, ev.latencyMul, ev.line);
      break;
    case FaultEvent::Kind::RemoveNode: return removeNode(ev.a, ev.line);
    case FaultEvent::Kind::AddLink:
      addLink(ev.a, ev.b, ev.weightMul, ev.latencyMul, ev.line);
      break;
    case FaultEvent::Kind::RemoveLink: removeLink(ev.a, ev.b, ev.line); break;
    default:
      DIVA_CHECK_MSG(false, faultKindName(ev.kind) << " is not a structural event");
  }
  return {};
}

bool MemberGraph::adjacent(NodeId u, NodeId v) const {
  if (hasGraph_)
    return std::any_of(graph_.edges.begin(), graph_.edges.end(),
                       [&](const GraphSpec::Edge& e) { return sameEdge(e, u, v); });
  if (u < 0 || u >= source_->numNodes()) return false;
  for (int dir = 0; dir < source_->degree(); ++dir)
    if (source_->neighbor(u, dir) == v) return true;
  return false;
}

void MemberGraph::ensureGraph(int line) {
  if (hasGraph_) return;
  const GraphSpec* g = source_->graph();
  DIVA_REQUIRE(g != nullptr,
               "structural reconfiguration requires a graph-backed topology; '"
                   << source_->name() << "' cannot grow or shrink" << atLine(line));
  graph_ = *g;
  graph_.allowIsolated = true;
  hasGraph_ = true;
}

bool MemberGraph::connectedWithout(NodeId dropNode, NodeId dropU, NodeId dropV) const {
  // BFS over the member-only edges minus the dropped element.
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(graph_.numNodes));
  for (const GraphSpec::Edge& e : graph_.edges) {
    if (e.u == dropNode || e.v == dropNode || sameEdge(e, dropU, dropV)) continue;
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  NodeId start = -1;
  std::size_t want = 0;
  for (NodeId m : members_)
    if (m != dropNode) {
      if (start < 0) start = m;
      ++want;
    }
  if (want <= 1) return true;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(graph_.numNodes), 0);
  std::vector<NodeId> queue{start};
  seen[static_cast<std::size_t>(start)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (NodeId nb : adj[static_cast<std::size_t>(queue[head])])
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        queue.push_back(nb);
      }
  return queue.size() == want;
}

NodeId MemberGraph::addNode(NodeId anchor, double weight, double latency, int line) {
  ensureGraph(line);
  DIVA_REQUIRE(member(anchor),
               "add-node: anchor " << anchor << " is not a member node" << atLine(line));
  DIVA_REQUIRE(weight > 0.0 && latency > 0.0,
               "add-node: edge weight and latency must be positive" << atLine(line));
  const NodeId id = graph_.numNodes++;
  graph_.edges.push_back(GraphSpec::Edge{anchor, id, weight, latency});
  member_.push_back(1);
  members_.push_back(id);
  return id;
}

std::vector<GraphSpec::Edge> MemberGraph::removeNode(NodeId n, int line) {
  ensureGraph(line);
  DIVA_REQUIRE(member(n),
               "remove-node: node " << n << " is not a member node" << atLine(line));
  DIVA_REQUIRE(members_.size() > 1, "remove-node: removing node "
                                        << n << " would empty the machine"
                                        << atLine(line));
  DIVA_REQUIRE(connectedWithout(n, -1, -1), "remove-node: removing node "
                                                << n << " would disconnect the machine"
                                                << atLine(line));
  // Stable: the surviving edges keep their order, the severed ones too.
  std::vector<GraphSpec::Edge>& edges = graph_.edges;
  const auto cut = std::stable_partition(edges.begin(), edges.end(),
                                         [n](const GraphSpec::Edge& e) {
                                           return e.u != n && e.v != n;
                                         });
  std::vector<GraphSpec::Edge> severed(cut, edges.end());
  edges.erase(cut, edges.end());
  member_[static_cast<std::size_t>(n)] = 0;
  members_.erase(std::find(members_.begin(), members_.end(), n));
  return severed;
}

void MemberGraph::addLink(NodeId u, NodeId v, double weight, double latency, int line) {
  ensureGraph(line);
  DIVA_REQUIRE(member(u) && member(v) && u != v,
               "add-link: endpoints " << u << " and " << v
                                      << " must be distinct member nodes"
                                      << atLine(line));
  DIVA_REQUIRE(weight > 0.0 && latency > 0.0,
               "add-link: edge weight and latency must be positive" << atLine(line));
  DIVA_REQUIRE(!adjacent(u, v), "add-link: nodes " << u << " and " << v
                                                   << " are already adjacent" << atLine(line));
  graph_.edges.push_back(GraphSpec::Edge{u, v, weight, latency});
}

void MemberGraph::removeLink(NodeId u, NodeId v, int line) {
  ensureGraph(line);
  DIVA_REQUIRE(member(u) && member(v), "remove-link: endpoints "
                                           << u << " and " << v
                                           << " must be member nodes" << atLine(line));
  const auto it =
      std::find_if(graph_.edges.begin(), graph_.edges.end(),
                   [&](const GraphSpec::Edge& e) { return sameEdge(e, u, v); });
  DIVA_REQUIRE(it != graph_.edges.end(), "remove-link: nodes "
                                             << u << " and " << v << " are not adjacent"
                                             << atLine(line));
  DIVA_REQUIRE(connectedWithout(-1, u, v), "remove-link: cutting "
                                               << u << "—" << v
                                               << " would disconnect the machine"
                                               << atLine(line));
  graph_.edges.erase(it);
}

}  // namespace diva::net
