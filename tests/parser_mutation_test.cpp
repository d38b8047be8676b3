// Deterministic mutation smoke for the three text parsers (graph,
// scenario, request trace): seeded single-byte edits of committed and
// generated inputs. Every mutant must either be rejected with a
// CheckError or parse to a value that round-trips through its formatter.
// Any other exception, a crash or a sanitizer report is a parser defect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/graph_topology.hpp"
#include "serve/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"

namespace diva {
namespace {

/// Mutants per input. Sized to keep the suite well under two seconds in a
/// Debug+ASan build.
constexpr int kMutants = 300;

/// Edit characters: the ones that split, join, truncate or re-type tokens.
constexpr char kEditChars[] = "0123456789-.# \n";

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Apply kMutants seeded single-byte edits (replace, insert or delete) to
/// `text`, one per mutant, and check each against the contract above.
/// Returns how many mutants parsed, so callers can see both outcomes ran.
template <typename Parse, typename Format>
int checkMutants(const std::string& text, Parse parse, Format format, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = text;
    const std::size_t pos = rng.below(mutant.size());
    const char c = kEditChars[rng.below(sizeof kEditChars - 1)];
    switch (rng.below(3)) {
      case 0: mutant[pos] = c; break;
      case 1: mutant.insert(pos, 1, c); break;
      default: mutant.erase(pos, 1); break;
    }
    decltype(parse(mutant)) value;
    try {
      value = parse(mutant);
    } catch (const support::CheckError&) {
      continue;
    }
    ++parsed;
    try {
      EXPECT_EQ(parse(format(value)), value) << "mutant:\n" << mutant;
    } catch (const support::CheckError& e) {
      ADD_FAILURE() << "formatted mutant does not parse: " << e.what() << "\nmutant:\n"
                    << mutant;
    }
  }
  return parsed;
}

TEST(ParserMutation, GraphMutantsThrowOrRoundTrip) {
  // A fat tree has non-unit weights, so the weight column is mutated too.
  const std::string text = net::formatGraph(net::fatTreeGraph(2, 4));
  const int parsed = checkMutants(text, net::parseGraph, net::formatGraph, 1);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(ParserMutation, ScenarioMutantsThrowOrRoundTrip) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(DIVA_SCENARIO_DIR))
    if (entry.path().extension() == ".scenario") paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 5u);
  std::uint64_t seed = 2;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    const int parsed = checkMutants(readFile(path), workload::parseScenario,
                                    workload::formatScenario, seed++);
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, kMutants);
  }
}

TEST(ParserMutation, TraceMutantsThrowOrRoundTrip) {
  const std::string text = readFile(std::string(DIVA_SCENARIO_DIR) + "/sample.trace");
  const int parsed = checkMutants(text, serve::parseTrace, serve::formatTrace, 3);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

}  // namespace
}  // namespace diva
