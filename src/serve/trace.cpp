#include "serve/trace.hpp"

#include <limits>
#include <sstream>

#include "support/line_reader.hpp"

namespace diva::serve {

Trace parseTrace(const std::string& text) {
  Trace trace;
  bool haveObjects = false;
  int maxObject = -1;
  double lastTime = 0.0;
  support::LineReader r(text, "trace");
  while (r.next()) {
    if (r.word() == "trace") {
      trace.name = r.token("name");
    } else if (r.word() == "objects") {
      if (haveObjects) r.fail("duplicate 'objects' line");
      haveObjects = true;
      trace.numObjects = r.value<int>("object count");
      if (trace.numObjects < 1) r.fail("object count must be positive");
      if (r.more()) {
        trace.objectBytes = r.value<std::uint64_t>("object size");
        if (trace.objectBytes < 1) r.fail("object size must be positive");
      }
    } else {
      // A request line: <t> <node> <r|w> <object>. Its first token was
      // read as the directive word — re-parse it as the arrival time.
      TraceRequest req;
      if (!support::parseToken(r.word(), req.timeUs))
        r.fail("expected a request line '<t> <node> <r|w> <object>' or a directive, got '",
               r.word(), "'");
      if (req.timeUs < 0.0) r.fail("arrival time must be >= 0");
      if (req.timeUs < lastTime)
        r.fail("arrival times must be non-decreasing (", req.timeUs, " after ", lastTime,
               ")");
      lastTime = req.timeUs;
      req.node = r.value<net::NodeId>("node id");
      if (req.node < 0) r.fail("node id must be >= 0");
      const std::string op = r.token("op ('r' or 'w')");
      if (op != "r" && op != "w") r.fail("op must be 'r' or 'w' (got '", op, "')");
      req.isRead = op == "r";
      req.object = r.value<int>("object id");
      if (req.object < 0) r.fail("object id must be >= 0");
      if (req.object > maxObject) maxObject = req.object;
      trace.requests.push_back(req);
    }
  }
  if (haveObjects) {
    DIVA_REQUIRE(maxObject < trace.numObjects,
                 "trace file: request object id " << maxObject
                                                  << " outside declared population "
                                                  << trace.numObjects);
  } else {
    trace.numObjects = maxObject + 1;
  }
  DIVA_REQUIRE(!trace.requests.empty(), "trace file has no request lines");
  return trace;
}

Trace loadTraceFile(const std::string& path) {
  return support::parseFile(path, "trace", parseTrace);
}

std::string formatTrace(const Trace& trace) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "trace " << trace.name << "\n";
  out << "objects " << trace.numObjects << " " << trace.objectBytes << "\n";
  for (const TraceRequest& req : trace.requests) {
    out << req.timeUs << " " << req.node << " " << (req.isRead ? "r" : "w") << " "
        << req.object << "\n";
  }
  return out.str();
}

}  // namespace diva::serve
