#include "workload/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/line_reader.hpp"

namespace diva::workload {

WorkloadSpec parseScenario(const std::string& text) {
  WorkloadSpec spec;
  spec.name = "file";
  spec.phases.clear();
  bool haveObjects = false;
  PhaseSpec* phase = nullptr;
  support::LineReader r(text, "scenario");
  // Phase keys configure the latest `phase` line.
  auto ph = [&]() -> PhaseSpec& {
    if (phase == nullptr) r.fail("'", r.word(), "' before any 'phase'");
    return *phase;
  };
  while (r.next()) {
    const std::string& word = r.word();
    if (word == "scenario") {
      spec.name = r.token("name");
    } else if (word == "seed") {
      spec.seed = r.value<std::uint64_t>("seed");
    } else if (word == "objects") {
      if (haveObjects) r.fail("duplicate 'objects' line");
      haveObjects = true;
      spec.numObjects = r.value<int>("object count");
      if (r.more()) spec.objectBytes = r.value<std::uint64_t>("object size");
    } else if (word == "cache") {
      spec.cacheBytes = r.value<std::uint64_t>("cache size");
    } else if (word == "procs") {
      spec.procs = r.value<int>("procs");
    } else if (word == "topology") {
      spec.topology = r.token("topology name");
    } else if (word == "phase") {
      PhaseSpec p;
      p.name = r.token("phase name");
      spec.phases.push_back(p);
      phase = &spec.phases.back();
    } else if (word == "rounds") {
      ph().rounds = r.value<int>("rounds");
    } else if (word == "reads") {
      ph().readFraction = r.value<double>("reads");
    } else if (word == "zipf") {
      ph().zipfS = r.value<double>("zipf");
    } else if (word == "hotshift") {
      ph().hotShift = r.value<int>("hotshift");
    } else if (word == "think") {
      ph().thinkMeanUs = r.value<double>("think");
    } else if (word == "barrier") {
      PhaseSpec& p = ph();
      const int b = r.value<int>("barrier");
      if (b != 0 && b != 1) r.fail("'barrier' must be 0 or 1");
      p.barrier = b == 1;
    } else if (word == "arrival") {
      using Kind = serve::ArrivalSpec::Kind;
      serve::ArrivalSpec& a = ph().arrival;
      const std::string kind = r.token("arrival kind (fixed/poisson/burst)");
      a.kind = Kind::None;
      for (const Kind k : {Kind::Fixed, Kind::Poisson, Kind::Burst})
        if (kind == serve::arrivalKindName(k)) a.kind = k;
      if (!a.open()) r.fail("unknown arrival kind '", kind, "'");
      a.ratePerSec = r.value<double>("arrival rate");
      if (a.kind == Kind::Burst) {
        a.burstOnUs = r.value<double>("burst on-window");
        a.burstOffUs = r.value<double>("burst off-window");
      }
    } else if (word == "deadline") {
      ph().deadlineUs = r.value<double>("deadline");
    } else if (word == "queue") {
      ph().queueLimit = r.value<int>("queue");
    } else if (word == "trace") {
      ph().tracePath = r.token("trace file path");
    } else if (word == "fault" || word == "reconfig") {
      // fault <offsetUs> <kind> <a> [b] [weightMul latencyMul]
      // reconfig <offsetUs> <kind> <a> [b] [weight [latency]]
      // (docs/faults.md). Values are range-checked by validate(), and
      // endpoints at run time against the machine's shape at the event's
      // firing instant; both errors name this line.
      PhaseSpec& p = ph();
      using Kind = net::FaultEvent::Kind;
      net::FaultEvent ev;
      ev.line = r.lineNo();
      ev.offsetUs = r.value<double>("offset");
      const std::string kind = r.token("kind");
      bool known = false;
      for (int k = 0; k <= static_cast<int>(Kind::RemoveLink); ++k) {
        if (kind == net::faultKindName(static_cast<Kind>(k)) &&
            net::isStructural(static_cast<Kind>(k)) == (word == "reconfig")) {
          ev.kind = static_cast<Kind>(k);
          known = true;
        }
      }
      if (!known) r.fail("unknown ", word, " kind '", kind, "'");
      ev.a = r.value<net::NodeId>("endpoint");
      // `b` stays at its default for one-endpoint kinds, which keeps
      // parse(format(spec)) == spec for specs built in code.
      const bool nodeKind = ev.kind == Kind::NodeDown || ev.kind == Kind::NodeUp ||
                            ev.kind == Kind::AddNode || ev.kind == Kind::RemoveNode;
      if (!nodeKind) ev.b = r.value<net::NodeId>("endpoint");
      if (ev.kind == Kind::Degrade) {
        ev.weightMul = r.value<double>("weight multiplier");
        ev.latencyMul = r.value<double>("latency multiplier");
      } else if (ev.kind == Kind::AddNode || ev.kind == Kind::AddLink) {
        // Optional new-edge weight and latency (default 1.0 each),
        // carried in the multiplier fields.
        if (r.more()) ev.weightMul = r.value<double>("edge weight");
        if (r.more()) ev.latencyMul = r.value<double>("edge latency");
      }
      p.faults.push_back(ev);
    } else {
      r.fail("unknown directive '", word, "'");
    }
  }
  DIVA_REQUIRE(haveObjects, "scenario file has no 'objects' line");
  DIVA_REQUIRE(!spec.phases.empty(), "scenario file has no 'phase' line");
  spec.validate();
  return spec;
}

WorkloadSpec loadScenarioFile(const std::string& path) {
  return support::parseFile(path, "scenario", [&path](const std::string& text) {
    WorkloadSpec spec = parseScenario(text);
    // Resolve relative trace paths against the scenario file's directory,
    // so a committed scenario works no matter the runner's cwd. In-memory
    // parseScenario text has no anchor and keeps paths as written.
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    for (PhaseSpec& ph : spec.phases) {
      if (ph.tracePath.empty()) continue;
      if (!dir.empty() && std::filesystem::path(ph.tracePath).is_relative())
        ph.tracePath = (dir / ph.tracePath).string();
      // Preflight: traces are otherwise opened lazily when their phase
      // starts, which buries a typo'd path in mid-run engine output. Fail
      // here, at load, with the resolved path — scenario_runner turns
      // this into a clean exit 3 before anything runs.
      std::ifstream trace(ph.tracePath);
      if (!trace.good())
        throw support::CheckError("phase '" + ph.name +
                                  "': cannot open trace file '" + ph.tracePath + "'");
    }
    return spec;
  });
}

std::string formatScenario(const WorkloadSpec& spec) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "scenario " << spec.name << "\n";
  out << "seed " << spec.seed << "\n";
  out << "objects " << spec.numObjects << " " << spec.objectBytes << "\n";
  if (spec.cacheBytes != 0) out << "cache " << spec.cacheBytes << "\n";
  if (spec.procs != 0) out << "procs " << spec.procs << "\n";
  if (!spec.topology.empty()) out << "topology " << spec.topology << "\n";
  for (const PhaseSpec& ph : spec.phases) {
    out << "phase " << ph.name << "\n";
    out << "rounds " << ph.rounds << "\n";
    out << "reads " << ph.readFraction << "\n";
    if (ph.zipfS != 0.0) out << "zipf " << ph.zipfS << "\n";
    if (ph.hotShift != 0) out << "hotshift " << ph.hotShift << "\n";
    if (ph.thinkMeanUs != 0.0) out << "think " << ph.thinkMeanUs << "\n";
    if (!ph.barrier) out << "barrier 0\n";
    if (ph.arrival.open()) {
      out << "arrival " << serve::arrivalKindName(ph.arrival.kind) << " "
          << ph.arrival.ratePerSec;
      if (ph.arrival.kind == serve::ArrivalSpec::Kind::Burst)
        out << " " << ph.arrival.burstOnUs << " " << ph.arrival.burstOffUs;
      out << "\n";
    }
    if (ph.deadlineUs != 0.0) out << "deadline " << ph.deadlineUs << "\n";
    if (ph.queueLimit != 0) out << "queue " << ph.queueLimit << "\n";
    if (!ph.tracePath.empty()) out << "trace " << ph.tracePath << "\n";
    for (const net::FaultEvent& ev : ph.faults) {
      out << (net::isStructural(ev.kind) ? "reconfig " : "fault ") << ev.offsetUs
          << " " << net::faultKindName(ev.kind);
      switch (ev.kind) {
        case net::FaultEvent::Kind::NodeDown:
        case net::FaultEvent::Kind::NodeUp:
        case net::FaultEvent::Kind::RemoveNode:
          out << " " << ev.a;
          break;
        case net::FaultEvent::Kind::LinkDown:
        case net::FaultEvent::Kind::LinkUp:
        case net::FaultEvent::Kind::RemoveLink:
          out << " " << ev.a << " " << ev.b;
          break;
        case net::FaultEvent::Kind::Degrade:
          out << " " << ev.a << " " << ev.b << " " << ev.weightMul << " "
              << ev.latencyMul;
          break;
        case net::FaultEvent::Kind::AddNode:
          out << " " << ev.a;
          if (ev.weightMul != 1.0 || ev.latencyMul != 1.0)
            out << " " << ev.weightMul << " " << ev.latencyMul;
          break;
        case net::FaultEvent::Kind::AddLink:
          out << " " << ev.a << " " << ev.b;
          if (ev.weightMul != 1.0 || ev.latencyMul != 1.0)
            out << " " << ev.weightMul << " " << ev.latencyMul;
          break;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace diva::workload
