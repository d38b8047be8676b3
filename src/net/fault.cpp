#include "net/fault.hpp"

#include "net/network.hpp"
#include "support/check.hpp"

namespace diva::net {

const char* faultKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::LinkDown: return "link-down";
    case FaultEvent::Kind::LinkUp: return "link-up";
    case FaultEvent::Kind::NodeDown: return "node-down";
    case FaultEvent::Kind::NodeUp: return "node-up";
    case FaultEvent::Kind::Degrade: return "degrade";
    case FaultEvent::Kind::AddNode: return "add-node";
    case FaultEvent::Kind::RemoveNode: return "remove-node";
    case FaultEvent::Kind::AddLink: return "add-link";
    case FaultEvent::Kind::RemoveLink: return "remove-link";
  }
  return "?";
}

std::string atLine(int line) {
  return line > 0 ? " (scenario line " + std::to_string(line) + ")" : std::string();
}

void applyFault(Network& net, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::LinkDown: net.setLinkUp(ev.a, ev.b, false); return;
    case FaultEvent::Kind::LinkUp: net.setLinkUp(ev.a, ev.b, true); return;
    case FaultEvent::Kind::NodeDown: net.setNodeUp(ev.a, false); return;
    case FaultEvent::Kind::NodeUp: net.setNodeUp(ev.a, true); return;
    case FaultEvent::Kind::Degrade:
      net.degradeLink(ev.a, ev.b, ev.weightMul, ev.latencyMul);
      return;
    default: net.reshape(ev); return;  // structural: MemberGraph::apply
  }
}

void scheduleFaultPlan(sim::Engine& engine, Network& net, const FaultPlan& plan,
                       sim::Time base) {
  for (const FaultEvent& ev : plan) {
    DIVA_CHECK_MSG(ev.offsetUs >= 0.0, "fault '" << faultKindName(ev.kind)
                                                 << "' has negative offset "
                                                 << ev.offsetUs);
    engine.scheduleAt(base + ev.offsetUs, [&net, ev] { applyFault(net, ev); });
  }
}

}  // namespace diva::net
