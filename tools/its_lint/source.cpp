// Tokenizer, rule tables, suppression handling, and report formatting.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>

namespace its::lint {

namespace {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

constexpr RuleInfo kRules[kNumRules] = {
    {"det-rand",
     "nondeterministic generator (std::rand, random_device, unseeded "
     "mt19937) outside src/util/rng.* and src/fault/"},
    {"det-clock",
     "wall-clock read (system_clock, steady_clock, gettimeofday, ...) — "
     "simulation time is the only clock"},
    {"det-unordered-iter",
     "iteration over an unordered container in a file that emits events or "
     "accumulates metrics (hash order leaks into traces)"},
    {"det-ptr-key",
     "ordered container keyed by pointer (iteration order follows the "
     "allocator, not the program)"},
    {"det-double-ns",
     "double-precision accumulation of nanosecond quantities outside "
     "src/util/stats.* (silent rounding corrupts accounting)"},
    {}, {}, {}, {}, {},  // retired registry rules (exit codes 15-19)
    {"reg-config-doc",
     "SimConfig field not mentioned in docs/ or README.md"},
    {"lint-bad-suppress",
     "its-lint: allow(...) with an unknown rule or without a reason"},
    {"arch-layer",
     "module depends on a layer above it or on one missing from its "
     "docs/architecture.layers row (stale manifest edges also fire)"},
    {"arch-cycle",
     "header-level include cycle (reported as the full cycle path)"},
    {"arch-iwyu",
     "file references a project symbol whose defining header it does not "
     "directly include (transitive-include reliance)"},
    {"arch-unused-include",
     "project include whose header contributes no referenced symbol"},
    {"arch-guard", "header missing #pragma once"},
    {"arch-dead-api",
     "symbol declared in a module's public header but referenced by no "
     "other file in src/, tests/, tools/, examples/ or bench/"},
    {}, {}, {}, {}, {},  // retired conc-* rules (exit codes 28-32)
    {"units-mixed-arith",
     "arithmetic/comparison mixing quantity dimensions (SimTime + SimTime, "
     "time vs bytes/pages/addresses) — see the algebra in util/types.h"},
    {"units-alias-decl",
     "bare uint64_t/double declaration whose vocabulary names a time, "
     "address, page or size quantity — use the its:: alias"},
    {"units-raw-literal",
     "unsuffixed time-scale literal in a time context — write 5_us/5_ms/5_s "
     "instead of counting zeros"},
    {"units-narrow",
     "time/size quantity narrowed to 32 bits or promoted to double outside "
     "the sanctioned report path"},
    {"units-overflow",
     "raw Duration*Duration or Duration*count product — use checked_mul, "
     "saturating_mul or wide_mul (util/types.h)"},
    {"units-shift-page",
     "manual >>12 / &0xfff page arithmetic — use vpn_of/page_base/"
     "kPageShift/kPageOffsetMask from util/types.h"},
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::string_view rule_id(Rule r) {
  return kRules[static_cast<std::size_t>(r)].id;
}

std::string_view rule_summary(Rule r) {
  return kRules[static_cast<std::size_t>(r)].summary;
}

bool rule_from_id(std::string_view id, Rule* out) {
  for (std::size_t i = 0; i < kNumRules; ++i) {
    if (!id.empty() && kRules[i].id == id) {
      *out = static_cast<Rule>(i);
      return true;
    }
  }
  return false;
}

int exit_code_for(Rule r) { return 10 + static_cast<int>(r); }

int LintResult::exit_code() const {
  if (!errors.empty()) return kExitUsage;
  if (findings.empty()) return kExitClean;
  // Several distinct rules may fire in one run; the exit code is the
  // LOWEST firing rule's code, i.e. the most specific documented one —
  // never a catch-all — so callers can branch on the status reliably.
  Rule lowest = findings.front().rule;
  for (const Finding& f : findings)
    if (f.rule < lowest) lowest = f.rule;
  return exit_code_for(lowest);
}

std::string strip_comments_and_strings(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLine, kBlock, kString, kChar, kRawString };
  State st = State::kCode;
  std::string raw_delim;  // )delim" terminator of a raw string literal
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(text[i - 1]))) {
          // R"delim( ... )delim"
          std::size_t open = text.find('(', i + 2);
          if (open == std::string_view::npos) {
            out += c;
            break;
          }
          raw_delim.assign(1, ')');
          raw_delim.append(text.substr(i + 2, open - (i + 2)));
          raw_delim += '"';
          for (std::size_t j = i; j <= open; ++j)
            out += text[j] == '\n' ? '\n' : ' ';
          i = open;
          st = State::kRawString;
        } else if (c == '"') {
          st = State::kString;
          out += ' ';
        } else if (c == '\'' && (i == 0 || !ident_char(text[i - 1]))) {
          // Identifier guard keeps digit separators (1'000'000) intact.
          st = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          st = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          st = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out += ' ';
          i += raw_delim.size() - 1;
          st = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

bool contains_word(std::string_view line, std::string_view word) {
  std::size_t at = 0;
  while ((at = line.find(word, at)) != std::string_view::npos) {
    bool left_ok = at == 0 || !ident_char(line[at - 1]);
    std::size_t end = at + word.size();
    bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return true;
    at = end;
  }
  return false;
}

namespace {

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (!lines.empty() && lines.back().empty() && !text.empty() &&
      text.back() == '\n')
    lines.pop_back();
  return lines;
}

}  // namespace

bool SourceFile::load(const std::string& path, SourceFile* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = from_text(path, ss.str());
  return true;
}

SourceFile SourceFile::from_text(std::string path, std::string_view text) {
  SourceFile f;
  f.path = std::move(path);
  f.raw_lines = split_lines(text);
  f.code_lines = split_lines(strip_comments_and_strings(text));
  // strip() preserves newlines, so the twins must agree line for line.
  f.code_lines.resize(f.raw_lines.size());
  return f;
}

// ---------------------------------------------------------------------------
// Suppressions.

namespace {

struct Suppression {
  Rule rule;
  bool valid = false;      ///< Known rule and non-empty reason.
  std::string problem;     ///< Message when !valid.
};

/// Parses every `its-lint: allow(rule): reason` on one raw line.
std::vector<Suppression> parse_suppressions(std::string_view raw) {
  std::vector<Suppression> out;
  constexpr std::string_view kTag = "its-lint:";
  std::size_t at = 0;
  while ((at = raw.find(kTag, at)) != std::string_view::npos) {
    std::size_t i = at + kTag.size();
    at = i;
    while (i < raw.size() && raw[i] == ' ') ++i;
    constexpr std::string_view kAllow = "allow(";
    if (raw.compare(i, kAllow.size(), kAllow) != 0) {
      out.push_back({Rule::kBadSuppress, false,
                     "malformed its-lint directive (expected allow(<rule>))"});
      continue;
    }
    i += kAllow.size();
    std::size_t close = raw.find(')', i);
    if (close == std::string_view::npos) {
      out.push_back({Rule::kBadSuppress, false,
                     "unterminated its-lint: allow("});
      continue;
    }
    std::string id(raw.substr(i, close - i));
    Suppression s;
    if (!rule_from_id(id, &s.rule)) {
      s.problem = "unknown rule '" + id + "' in its-lint: allow()";
      out.push_back(s);
      continue;
    }
    // Mandatory reason: everything after "):" (the colon is required).
    std::size_t r = close + 1;
    while (r < raw.size() && raw[r] == ' ') ++r;
    if (r >= raw.size() || raw[r] != ':') {
      s.problem = "suppression of '" + id +
                  "' needs a reason — write allow(" + id + "): <why>";
      out.push_back(s);
      continue;
    }
    ++r;
    while (r < raw.size() && std::isspace(static_cast<unsigned char>(raw[r])))
      ++r;
    if (r >= raw.size()) {
      s.problem = "suppression of '" + id + "' has an empty reason";
      out.push_back(s);
      continue;
    }
    s.valid = true;
    out.push_back(s);
  }
  return out;
}

bool line_is_pure_comment(std::string_view raw) {
  std::size_t i = 0;
  while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i])))
    ++i;
  return i + 1 < raw.size() && raw[i] == '/' && raw[i + 1] == '/';
}

}  // namespace

std::vector<Finding> apply_suppressions(const SourceFile& f,
                                        std::vector<Finding> findings) {
  // allowed[rule] holds the 1-based lines a valid suppression covers.
  std::vector<std::vector<std::size_t>> allowed(kNumRules);
  std::vector<Finding> bad;
  for (std::size_t li = 0; li < f.raw_lines.size(); ++li) {
    const std::string& raw = f.raw_lines[li];
    if (raw.find("its-lint:") == std::string::npos) continue;
    // A whole-line comment guards the next line; a trailing one its own.
    std::size_t target = line_is_pure_comment(raw) ? li + 2 : li + 1;
    for (const Suppression& s : parse_suppressions(raw)) {
      if (!s.valid) {
        bad.push_back(
            {f.path, li + 1, Rule::kBadSuppress, s.problem});
      } else {
        allowed[static_cast<std::size_t>(s.rule)].push_back(target);
      }
    }
  }
  std::vector<Finding> out;
  for (Finding& fi : findings) {
    const auto& lines = allowed[static_cast<std::size_t>(fi.rule)];
    if (std::find(lines.begin(), lines.end(), fi.line) != lines.end())
      continue;
    out.push_back(std::move(fi));
  }
  out.insert(out.end(), bad.begin(), bad.end());
  return out;
}

// ---------------------------------------------------------------------------
// Output.

void print_findings(std::ostream& os, const LintResult& r) {
  for (const std::string& e : r.errors) os << "its_lint: error: " << e << "\n";
  for (const Finding& f : r.findings) {
    os << f.file;
    if (f.line != 0) os << ":" << f.line;
    os << ": [" << rule_id(f.rule) << "] " << f.message << "\n";
  }
  if (r.findings.empty() && r.errors.empty())
    os << "its_lint: clean\n";
  else
    os << "its_lint: " << r.findings.size() << " finding(s)\n";
}

namespace {

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (c == '\n')
      os << "\\n";
    else if (static_cast<unsigned char>(c) < 0x20)
      os << ' ';
    else
      os << c;
  }
}

}  // namespace

void print_json(std::ostream& os, const LintResult& r) {
  os << "{\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    if (i != 0) os << ",";
    os << "\n  {\"file\":\"";
    json_escape(os, f.file);
    os << "\",\"line\":" << f.line << ",\"rule\":\"" << rule_id(f.rule)
       << "\",\"exit_code\":" << exit_code_for(f.rule) << ",\"message\":\"";
    json_escape(os, f.message);
    os << "\"}";
  }
  os << "\n],\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) os << ",";
    os << "\"";
    json_escape(os, r.errors[i]);
    os << "\"";
  }
  os << "],\"exit_code\":" << r.exit_code() << "}\n";
}

}  // namespace its::lint
