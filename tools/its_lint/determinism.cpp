// Determinism rules: the token-level checks that keep wall clocks, entropy
// and hash order out of the simulation and accounting paths.
#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "lint.h"

namespace its::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool path_contains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

/// Files allowed to own entropy: the seeded PCG32 wrapper and the fault
/// injector (whose whole job is drawing from seeded distributions).
bool rand_exempt(const std::string& path) {
  return path_contains(path, "util/rng.") || path_contains(path, "fault/");
}

bool stats_exempt(const std::string& path) {
  return path_contains(path, "util/stats.");
}

/// Joined view over code lines with offset→line translation.
struct JoinedCode {
  std::string text;
  std::vector<std::size_t> line_start;  ///< Offset of each line in text.

  explicit JoinedCode(const SourceFile& f) {
    for (const std::string& l : f.code_lines) {
      line_start.push_back(text.size());
      text += l;
      text += '\n';
    }
  }

  std::size_t line_of(std::size_t offset) const {
    auto it = std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<std::size_t>(it - line_start.begin());  // 1-based
  }
};

/// Finds `word` as a whole identifier starting at or after `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from) {
  std::size_t at = from;
  while ((at = text.find(word, at)) != std::string_view::npos) {
    bool left_ok = at == 0 || !ident_char(text[at - 1]);
    std::size_t end = at + word.size();
    bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return at;
    at = end;
  }
  return std::string_view::npos;
}

std::size_t skip_ws(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0)
    ++i;
  return i;
}

std::string read_ident(std::string_view text, std::size_t i,
                       std::size_t* end = nullptr) {
  std::size_t j = i;
  while (j < text.size() && ident_char(text[j])) ++j;
  if (end != nullptr) *end = j;
  return std::string(text.substr(i, j - i));
}

/// Offset of the bracket matching the `<` at `open` (-1 on failure).
std::size_t match_angle(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>' && --depth == 0) return i;
    if (text[i] == ';') break;  // statement ended: not a template
  }
  return std::string_view::npos;
}

std::size_t match_paren(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

std::vector<std::string> idents_in(std::string_view text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size();) {
    if (ident_char(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      std::size_t end = i;
      out.push_back(read_ident(text, i, &end));
      i = end;
    } else {
      ++i;
    }
  }
  return out;
}

// -- det-rand ---------------------------------------------------------------

void scan_rand(const SourceFile& f, const JoinedCode& j,
               std::vector<Finding>* out) {
  if (rand_exempt(f.path)) return;
  for (std::string_view banned : {"rand", "srand", "rand_r", "random",
                                  "random_device", "drand48", "lrand48"}) {
    std::size_t at = 0;
    while ((at = find_word(j.text, banned, at)) != std::string_view::npos) {
      // `random` headers/namespaces aside, require call- or decl-like use.
      std::size_t after = skip_ws(j.text, at + banned.size());
      bool call_like = after < j.text.size() &&
                       (j.text[after] == '(' || banned == "random_device");
      if (call_like) {
        std::string msg(1, '\'');
        msg.append(banned).append(
            "' is not seed-reproducible; draw from util::Rng (PCG32) instead");
        out->push_back({f.path, j.line_of(at), Rule::kDetRand, std::move(msg)});
      }
      at += banned.size();
    }
  }
  for (std::string_view mt : {"mt19937", "mt19937_64"}) {
    std::size_t at = 0;
    while ((at = find_word(j.text, mt, at)) != std::string_view::npos) {
      std::size_t i = skip_ws(j.text, at + mt.size());
      std::size_t line = j.line_of(at);
      at += mt.size();
      if (i >= j.text.size()) break;
      // A declaration: `mt19937 name;` / `name{};` is unseeded.  Any
      // parenthesised/braced argument counts as explicit seeding.
      if (!ident_char(j.text[i])) continue;  // type mention, not a decl
      std::size_t end = i;
      read_ident(j.text, i, &end);
      std::size_t nxt = skip_ws(j.text, end);
      bool unseeded = false;
      if (nxt < j.text.size() && j.text[nxt] == ';') unseeded = true;
      if (nxt < j.text.size() && j.text[nxt] == '{' &&
          j.text[skip_ws(j.text, nxt + 1)] == '}')
        unseeded = true;
      if (unseeded)
        out->push_back({f.path, line, Rule::kDetRand,
                        "unseeded " + std::string(mt) +
                            " falls back to an implementation-defined "
                            "default seed; seed it or use util::Rng"});
    }
  }
}

// -- det-clock --------------------------------------------------------------

void scan_clock(const SourceFile& f, const JoinedCode& j,
                std::vector<Finding>* out) {
  for (std::string_view banned :
       {"system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get"}) {
    std::size_t at = 0;
    while ((at = find_word(j.text, banned, at)) != std::string_view::npos) {
      std::string msg(1, '\'');
      msg.append(banned).append(
          "' reads the host clock; simulation time (its::SimTime) is the "
          "only clock here");
      out->push_back({f.path, j.line_of(at), Rule::kDetClock, std::move(msg)});
      at += banned.size();
    }
  }
}

// -- det-unordered-iter -----------------------------------------------------

/// Names declared (or bound as parameters) with an unordered container
/// type anywhere in the file.
std::vector<std::string> unordered_names(const JoinedCode& j) {
  std::vector<std::string> names;
  for (std::string_view kind : {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"}) {
    std::size_t at = 0;
    while ((at = find_word(j.text, kind, at)) != std::string_view::npos) {
      std::size_t open = skip_ws(j.text, at + kind.size());
      at += kind.size();
      if (open >= j.text.size() || j.text[open] != '<') continue;
      std::size_t close = match_angle(j.text, open);
      if (close == std::string_view::npos) continue;
      std::size_t i = skip_ws(j.text, close + 1);
      while (i < j.text.size() && (j.text[i] == '&' || j.text[i] == '*'))
        i = skip_ws(j.text, i + 1);
      if (i >= j.text.size() || !ident_char(j.text[i])) continue;
      std::size_t end = i;
      std::string name = read_ident(j.text, i, &end);
      if (name.empty()) continue;
      std::size_t nxt = skip_ws(j.text, end);
      if (nxt < j.text.size() && j.text[nxt] == '(') continue;  // function
      names.push_back(std::move(name));
    }
  }
  return names;
}

void scan_unordered_iter(const SourceFile& f, const JoinedCode& j,
                         std::vector<Finding>* out) {
  // Scope: only files on the event/metrics path — hash order is fine in
  // pure lookup structures that never feed an ordered output.
  bool in_scope = false;
  for (std::string_view marker : {"EventTrace", "SimMetrics"})
    if (find_word(j.text, marker, 0) != std::string_view::npos)
      in_scope = true;
  if (!in_scope) return;

  std::vector<std::string> names = unordered_names(j);
  if (names.empty()) return;
  auto is_unordered = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };

  std::size_t at = 0;
  while ((at = find_word(j.text, "for", at)) != std::string_view::npos) {
    std::size_t open = skip_ws(j.text, at + 3);
    std::size_t line = j.line_of(at);
    at += 3;
    if (open >= j.text.size() || j.text[open] != '(') continue;
    std::size_t close = match_paren(j.text, open);
    if (close == std::string_view::npos) continue;
    std::string_view header =
        std::string_view(j.text).substr(open + 1, close - open - 1);
    // Range-for: the expression right of the first top-level ':' (skip ::).
    std::size_t colon = std::string_view::npos;
    int depth = 0;
    for (std::size_t i = 0; i < header.size(); ++i) {
      char c = header[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ':' && depth == 0) {
        if (i + 1 < header.size() && header[i + 1] == ':') {
          ++i;
          continue;
        }
        colon = i;
        break;
      }
    }
    std::vector<std::string> range_idents;
    if (colon != std::string_view::npos)
      range_idents = idents_in(header.substr(colon + 1));
    else if (header.find(".begin") != std::string_view::npos ||
             header.find(".cbegin") != std::string_view::npos)
      range_idents = idents_in(header);  // classic iterator loop
    for (const std::string& n : range_idents) {
      if (is_unordered(n)) {
        out->push_back(
            {f.path, line, Rule::kDetUnorderedIter,
             "iterating '" + n +
                 "' visits hash order, which differs across standard "
                 "libraries; copy to a sorted container first"});
        break;
      }
    }
  }
}

// -- det-ptr-key ------------------------------------------------------------

void scan_ptr_key(const SourceFile& f, const JoinedCode& j,
                  std::vector<Finding>* out) {
  for (std::string_view kind : {"map", "set", "multimap", "multiset"}) {
    std::size_t at = 0;
    while ((at = find_word(j.text, kind, at)) != std::string_view::npos) {
      std::size_t open = skip_ws(j.text, at + kind.size());
      std::size_t line = j.line_of(at);
      at += kind.size();
      if (open >= j.text.size() || j.text[open] != '<') continue;
      std::size_t close = match_angle(j.text, open);
      if (close == std::string_view::npos) continue;
      // First template argument: up to the first top-level comma.
      std::string_view args =
          std::string_view(j.text).substr(open + 1, close - open - 1);
      int depth = 0;
      std::size_t key_end = args.size();
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == '<' || args[i] == '(') ++depth;
        if (args[i] == '>' || args[i] == ')') --depth;
        if (args[i] == ',' && depth == 0) {
          key_end = i;
          break;
        }
      }
      std::string_view key = args.substr(0, key_end);
      if (key.find('*') != std::string_view::npos) {
        out->push_back(
            {f.path, line, Rule::kDetPtrKey,
             "ordered container keyed by pointer: iteration follows "
             "allocation addresses, not program order — key by pid/index "
             "or use pid_key()"});
      }
    }
  }
}

// -- det-double-ns ----------------------------------------------------------

/// A declared name that *is* a nanosecond quantity.  Rates like
/// `bytes_per_ns` or `ns_per_instr` are legitimately double-valued, so
/// anything with a `per` stays exempt.
bool ns_quantity_name(const std::string& ident) {
  if (ident.find("per") != std::string::npos) return false;
  auto ends_with = [&](std::string_view s) {
    return ident.size() >= s.size() &&
           ident.compare(ident.size() - s.size(), s.size(), s) == 0;
  };
  return ident == "ns" || ident == "ns_" || ends_with("_ns") ||
         ends_with("_ns_");
}

bool ns_flavored(const std::string& ident) {
  auto has = [&](std::string_view n) {
    return ident.find(n) != std::string::npos;
  };
  return has("_ns") || has("ns_") || ident == "ns" || has("_time") ||
         has("time_") || has("_wait") || has("wait_") || has("stall") ||
         has("stolen") || has("makespan") || has("latency") ||
         has("duration") || ident == "SimTime" || ident == "Duration";
}

void scan_double_ns(const SourceFile& f, const JoinedCode& j,
                    std::vector<Finding>* out) {
  if (stats_exempt(f.path)) return;
  // Plain `double x` declarations in this file (functions excluded).
  std::vector<std::string> doubles;
  std::size_t at = 0;
  while ((at = find_word(j.text, "double", at)) != std::string_view::npos) {
    std::size_t i = skip_ws(j.text, at + 6);
    std::size_t decl_line = j.line_of(at);
    at += 6;
    if (i >= j.text.size() || !ident_char(j.text[i])) continue;
    std::size_t end = i;
    std::string name = read_ident(j.text, i, &end);
    std::size_t nxt = skip_ws(j.text, end);
    if (nxt < j.text.size() && j.text[nxt] == '(') continue;  // function
    if (ns_quantity_name(name)) {
      out->push_back(
          {f.path, decl_line, Rule::kDetDoubleNs,
           "'" + name +
               "' holds nanoseconds in a double; keep ns integral "
               "(its::Duration) and convert only at the report boundary"});
      continue;
    }
    doubles.push_back(std::move(name));
  }
  // Accumulations `x += <expr mentioning an ns-flavored identifier>`.
  at = 0;
  while ((at = j.text.find("+=", at)) != std::string_view::npos) {
    std::size_t line = j.line_of(at);
    // Left-hand side: the identifier immediately before the operator.
    std::size_t l = at;
    while (l > 0 &&
           std::isspace(static_cast<unsigned char>(j.text[l - 1])) != 0)
      --l;
    std::size_t lend = l;
    while (l > 0 && ident_char(j.text[l - 1])) --l;
    std::string lhs(j.text.substr(l, lend - l));
    std::size_t semi = j.text.find(';', at);
    std::string_view rhs = std::string_view(j.text).substr(
        at + 2, semi == std::string_view::npos ? j.text.size() - at - 2
                                               : semi - at - 2);
    at += 2;
    if (lhs.empty() ||
        std::find(doubles.begin(), doubles.end(), lhs) == doubles.end())
      continue;
    for (const std::string& ident : idents_in(rhs)) {
      if (ns_flavored(ident)) {
        out->push_back(
            {f.path, line, Rule::kDetDoubleNs,
             "double '" + lhs + "' accumulates '" + ident +
                 "' (a nanosecond quantity); sum in its::Duration and "
                 "divide once at the end"});
        break;
      }
    }
  }
}

}  // namespace

std::vector<Finding> scan_determinism(const SourceFile& f) {
  JoinedCode j(f);
  std::vector<Finding> out;
  scan_rand(f, j, &out);
  scan_clock(f, j, &out);
  scan_unordered_iter(f, j, &out);
  scan_ptr_key(f, j, &out);
  scan_double_ns(f, j, &out);
  return out;
}

}  // namespace its::lint
