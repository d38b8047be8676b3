#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "support/check.hpp"

namespace diva::support {

// ---------------------------------------------------------------------------
// The lexical rules shared by the line-oriented text formats — graph,
// scenario and request trace (docs/workloads.md "Lexical rules"):
//
//   - one directive per line, its first token; blank lines are skipped;
//   - '#' starts a comment anywhere on a line;
//   - a value must consume its whole token ("1.5" is no integer, "0.5x"
//     no number), and unsigned values reject a leading '-' (stream
//     extraction would silently wrap it to a huge value);
//   - a token after a directive's declared arguments is an error, so a
//     stray column cannot silently describe a different experiment;
//   - errors read "<format> file line N: …"; files add "<path>: " in
//     front (parseFile).
// ---------------------------------------------------------------------------

/// Parse all of `tok` as a T into `out`. False, leaving `out` untouched,
/// when the token is malformed, has characters left over, or is negative
/// for an unsigned T.
template <typename T>
bool parseToken(const std::string& tok, T& out) {
  if constexpr (std::is_unsigned_v<T>) {
    if (!tok.empty() && tok[0] == '-') return false;
  }
  std::istringstream ts(tok);
  T v{};
  if (!(ts >> v) || !ts.eof()) return false;
  out = v;
  return true;
}

/// Walks a text one directive line at a time:
///
///   LineReader r(text, "graph");
///   while (r.next()) {
///     if (r.word() == "nodes") n = r.value<int>("node count");
///     else r.fail("unknown directive '", r.word(), "'");
///   }
///
/// next() rejects a token left over on the line it leaves, so every
/// directive gets the trailing-token check without asking for it.
class LineReader {
 public:
  /// `format` names the format in error messages ("graph", "scenario", …).
  LineReader(const std::string& text, const char* format) : in_(text), format_(format) {}

  /// Advance to the next line holding a token; false at the end of text.
  bool next() {
    std::string extra;
    if (lineNo_ > 0 && line_ >> extra)
      fail("unexpected trailing token '", extra, "' after '", word_, "'");
    while (std::getline(in_, raw_)) {
      ++lineNo_;
      line_.clear();
      line_.str(raw_.substr(0, raw_.find('#')));
      if (line_ >> word_) return true;
    }
    return false;
  }

  int lineNo() const { return lineNo_; }

  /// The current line's directive: its first token.
  const std::string& word() const { return word_; }

  /// The line's next token; fails "missing <what>" at the end of the line.
  std::string token(const char* what) {
    std::string tok;
    if (!(line_ >> tok)) fail("missing ", what);
    return tok;
  }

  /// The line's next token parsed whole as a T (parseToken).
  template <typename T>
  T value(const char* what) {
    const std::string tok = token(what);
    T v{};
    if (!parseToken(tok, v)) fail("malformed ", what, " '", tok, "'");
    return v;
  }

  /// True when another token remains on the line (an optional argument).
  bool more() { return !(line_ >> std::ws).eof(); }

  /// Throw CheckError "<format> file line N: <parts…>".
  template <typename... Parts>
  [[noreturn]] void fail(const Parts&... parts) const {
    std::ostringstream os;
    os << format_ << " file line " << lineNo_ << ": ";
    (os << ... << parts);
    throw CheckError(os.str());
  }

 private:
  std::istringstream in_;
  std::string raw_;           ///< the current line as read, comment included
  std::istringstream line_;   ///< its tokens, comment cut off
  const char* format_;
  std::string word_;
  int lineNo_ = 0;
};

/// Read the file at `path` and return `parse(text)`. Every CheckError —
/// an unreadable file or whatever `parse` throws — is rethrown with
/// "<path>: " in front: the parsers also serve in-memory text, which has
/// no path, and a failing multi-file experiment must name its culprit.
template <typename Parse>
auto parseFile(const std::string& path, const char* format, Parse&& parse) {
  try {
    std::ifstream in(path);
    if (!in.good()) throw CheckError(std::string("cannot open ") + format + " file");
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

}  // namespace diva::support
