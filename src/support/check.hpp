#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace diva::support {

/// Error thrown when an internal invariant of the library is violated.
/// Unlike assert(), these checks stay enabled in release builds: the
/// simulator is a measurement instrument and silently corrupted state
/// would invalidate every number it produces.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] inline void checkFailed(const char* expr, const char* file, int line,
                                     const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace diva::support

/// DIVA_CHECK(cond) / DIVA_CHECK_MSG(cond, "context") — always-on invariant
/// checks. Use at protocol decision points; never on per-event hot paths.
#define DIVA_CHECK(cond)                                                 \
  do {                                                                   \
    if (!(cond)) ::diva::support::checkFailed(#cond, __FILE__, __LINE__, \
                                              std::string{});            \
  } while (0)

#define DIVA_CHECK_MSG(cond, msg)                                        \
  do {                                                                   \
    if (!(cond)) ::diva::support::checkFailed(#cond, __FILE__, __LINE__, \
                                              (std::ostringstream{} << msg).str()); \
  } while (0)

/// DIVA_REQUIRE(cond, "message") — always-on check of caller input
/// (scenario values, scripted reconfigurations): throws CheckError with
/// the message alone, so a bad input reads as an input problem rather
/// than an assertion with a source path.
#define DIVA_REQUIRE(cond, msg)                                           \
  do {                                                                    \
    if (!(cond))                                                          \
      throw ::diva::support::CheckError((std::ostringstream{} << msg).str()); \
  } while (0)
