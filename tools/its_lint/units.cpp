// units.cpp — the units-* family: a typedef-aware dimension analysis.
//
// The quantity aliases in src/util/types.h (SimTime, Duration, VirtAddr,
// PhysAddr, Vpn, Pfn, Bytes) are plain uint64_t typedefs so the golden-run
// suite stays bit-identical; the compiler therefore accepts any mix of
// them.  This pass supplies the missing dimension check:
//
//   pass A  walks every declaration (members, locals, params, function
//           return types) and builds per-file and whole-program maps from
//           identifier -> dimension.  A declaration with a *raw* arithmetic
//           type shadows the global map for that file, so a local
//           `double t` never inherits a distant `SimTime t`'s dimension.
//   pass B  walks expressions: binary operators, assignments (including
//           += / -=), call edges against registered signatures, page-shift
//           idioms, narrowing casts and raw time-scale literals.
//
// The algebra enforced (documented in util/types.h):
//   SimTime - SimTime -> Duration        SimTime + Duration -> SimTime
//   Duration ± Duration -> Duration      SimTime + SimTime  -> finding
//   time {+,-,<,==,*,...} bytes/pages/addresses -> finding
//   Duration * Duration, Duration * count -> finding (use checked helpers)
//
// Like every its_lint pass this is a tokenizer, not a compiler front end:
// operands it cannot resolve are skipped, never guessed, and every rule
// honours `// its-lint: allow(units-...): reason`.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace its::lint {

namespace {

namespace fs = std::filesystem;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::vector<std::string> collect_tree(const std::string& dir,
                                      std::vector<std::string>* errors) {
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec))
    if (it->is_regular_file() && cpp_source(it->path()))
      files.push_back(it->path().generic_string());
  if (ec) errors->push_back(dir + ": " + ec.message());
  std::sort(files.begin(), files.end());
  return files;
}

std::string joined_code(const SourceFile& f) {
  std::string text;
  for (const std::string& l : f.code_lines) {
    text += l;
    text += '\n';
  }
  return text;
}

std::size_t line_at(std::string_view text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

std::size_t skip_ws(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0)
    ++i;
  return i;
}

std::string read_ident(std::string_view text, std::size_t i,
                       std::size_t* end) {
  std::size_t j = i;
  while (j < text.size() && ident_char(text[j])) ++j;
  *end = j;
  return std::string(text.substr(i, j - i));
}

std::size_t skip_balanced(std::string_view text, std::size_t open, char o,
                          char c) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    if (text[i] == c && --depth == 0) return i + 1;
  }
  return text.size();
}

/// apply_suppressions both filters and *reports* malformed directives; the
/// determinism pass already reports those for every src file, so this pass
/// filters only (same contract as the arch pass).
std::vector<Finding> filter_suppressed(const SourceFile& f,
                                       std::vector<Finding> findings) {
  std::vector<Finding> out = apply_suppressions(f, std::move(findings));
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const Finding& fi) {
                             return fi.rule == Rule::kBadSuppress;
                           }),
            out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Dimensions.

/// kShadow marks an identifier declared with a raw arithmetic type: it
/// carries no dimension but blocks global-map fallback (and poisons the
/// whole-program entry when the same name is dimensioned elsewhere).
enum class Dim { kNone, kTime, kDur, kAddr, kPage, kBytes, kCount, kShadow };

Dim alias_dim(std::string_view name) {
  if (name == "SimTime") return Dim::kTime;
  if (name == "Duration") return Dim::kDur;
  if (name == "VirtAddr" || name == "PhysAddr") return Dim::kAddr;
  if (name == "Vpn" || name == "Pfn") return Dim::kPage;
  if (name == "Bytes") return Dim::kBytes;
  return Dim::kNone;
}

bool time_like(Dim d) { return d == Dim::kTime || d == Dim::kDur; }
bool space_like(Dim d) {
  return d == Dim::kAddr || d == Dim::kPage || d == Dim::kBytes;
}
bool dimensioned(Dim d) { return time_like(d) || space_like(d); }

std::string_view dim_name(Dim d) {
  switch (d) {
    case Dim::kTime: return "SimTime (a point in time)";
    case Dim::kDur: return "Duration";
    case Dim::kAddr: return "an address";
    case Dim::kPage: return "a page number";
    case Dim::kBytes: return "a byte count";
    case Dim::kCount: return "a count";
    default: return "an untyped quantity";
  }
}

/// Raw arithmetic type keywords that introduce shadow declarations.
bool raw_type_word(std::string_view w) {
  static const std::set<std::string_view> kRaw = {
      "uint64_t", "uint32_t", "uint16_t", "uint8_t", "int64_t",  "int32_t",
      "int16_t",  "int8_t",   "size_t",   "int",     "unsigned", "long",
      "short",    "char",     "bool",     "double",  "float",    "auto",
      "uintptr_t", "intptr_t", "ptrdiff_t", "uint_fast32_t"};
  return kRaw.count(w) != 0;
}

/// The subset of raw types whose vocabulary-matched declarations fire
/// units-alias-decl (wide enough to hold the quantity the name claims).
/// size_t stays out: size_t declarations are indexes and cursors, and the
/// simulator's quantities are all uint64_t.
bool alias_capable_type(std::string_view w) {
  return w == "uint64_t" || w == "int64_t" ||
         w == "uintptr_t" || w == "double" || w == "unsigned" || w == "long";
}

/// Narrow targets for units-narrow (32-bit or floating).
bool narrow_type_word(std::string_view w) {
  return w == "uint32_t" || w == "int32_t" || w == "uint16_t" ||
         w == "int16_t" || w == "int" || w == "unsigned" || w == "float" ||
         w == "double";
}

bool keyword_operand(std::string_view w) {
  static const std::set<std::string_view> kKw = {
      "return",  "case",     "goto",   "throw",  "if",       "while",
      "for",     "sizeof",   "new",    "delete", "else",     "operator",
      "template", "typename", "const",  "static", "constexpr", "using",
      "namespace", "struct",  "class",  "enum",   "switch",   "do",
      "public",  "private",  "protected", "true", "false",   "nullptr",
      "this",    "void",     "inline", "friend", "default",  "break",
      "continue", "co_return", "co_await", "static_cast", "reinterpret_cast",
      "const_cast", "dynamic_cast", "alignas", "alignof", "noexcept"};
  return kKw.count(w) != 0;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Last '_'-separated component of a (lowercased) identifier.
std::string head_word(const std::string& name) {
  std::string n = lower(name);
  while (!n.empty() && n.back() == '_') n.pop_back();
  std::size_t us = n.rfind('_');
  return us == std::string::npos ? n : n.substr(us + 1);
}

/// Which dimension an identifier's vocabulary claims, if any.
Dim vocab_dim(const std::string& name) {
  static const std::set<std::string_view> kTime = {
      "ns",       "time",     "latency",  "deadline", "cost",    "delay",
      "timeout",  "elapsed",  "duration", "backoff",  "period",  "makespan",
      "wait",     "slack",    "interval", "quantum",  "span",    "at",
      "now",      "clock",    "timestamp", "expiry",  "stall"};
  static const std::set<std::string_view> kAddr = {"addr", "address", "vaddr",
                                                   "paddr"};
  static const std::set<std::string_view> kPage = {"vpn", "pfn"};
  const std::string head = head_word(name);
  if (kTime.count(head) != 0) return Dim::kTime;
  if (kAddr.count(head) != 0) return Dim::kAddr;
  if (kPage.count(head) != 0) return Dim::kPage;
  if (head == "bytes") return Dim::kBytes;
  return Dim::kNone;
}

/// Count-vocabulary identifiers: legitimately raw, but participate in the
/// Duration*count overflow rule.
bool count_vocab(const std::string& name) {
  static const std::set<std::string_view> kCount = {
      "count", "counts", "n",       "num",        "repeat", "repeats",
      "iters", "iterations", "entries", "len",    "length", "pages",
      "frames", "slots",  "ops",    "instrs",     "instructions", "retries",
      "attempts", "jobs", "workers", "lanes",     "samples", "trials"};
  return kCount.count(head_word(name)) != 0;
}

/// Rate / ratio doubles are dimensionless by design.
bool rate_name(const std::string& name) {
  const std::string n = lower(name);
  return n.find("per") != std::string::npos ||
         n.find("ratio") != std::string::npos ||
         n.find("frac") != std::string::npos ||
         n.find("rate") != std::string::npos ||
         n.find("avg") != std::string::npos ||
         n.find("mean") != std::string::npos ||
         n.find("util") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Registries.

struct FnSig {
  Dim ret = Dim::kNone;
  std::vector<Dim> params;
  bool params_known = false;
  bool conflict = false;
};

struct Registry {
  std::map<std::string, Dim> vars;  ///< Members/globals; kShadow = poisoned.
  std::map<std::string, FnSig> fns;

  void merge_var(const std::string& name, Dim d) {
    auto it = vars.find(name);
    if (it == vars.end()) {
      vars.emplace(name, d);
    } else if (it->second != d) {
      it->second = Dim::kShadow;  // conflicting claims: never resolve
    }
  }

  void merge_fn(const std::string& name, const FnSig& sig) {
    auto it = fns.find(name);
    if (it == fns.end()) {
      fns.emplace(name, sig);
      return;
    }
    FnSig& have = it->second;
    if (have.ret != sig.ret) have.conflict = true;
    if (have.params != sig.params) have.params_known = false;
  }

  Dim lookup_var(const std::string& name) const {
    auto it = vars.find(name);
    if (it == vars.end()) return Dim::kNone;
    return it->second == Dim::kShadow ? Dim::kNone : it->second;
  }
};

struct FileInfo {
  SourceFile src;
  std::string code;  ///< joined code_lines, '\n'-separated.
  std::map<std::string, Dim> locals;  ///< Includes kShadow entries.
  bool exempt = false;  ///< util/types.h: the contract's own home.
  bool report_path = false;  ///< Sanctioned narrowing/report files.

  void merge_local(const std::string& name, Dim d) {
    auto it = locals.find(name);
    if (it == locals.end())
      locals.emplace(name, d);
    else if (it->second != d)
      it->second = Dim::kShadow;
  }

  /// Local declarations win; only then the whole-program map.
  Dim resolve(const Registry& reg, const std::string& name,
              bool member) const {
    if (!member) {
      auto it = locals.find(name);
      if (it != locals.end())
        return it->second == Dim::kShadow ? Dim::kNone : it->second;
    }
    return reg.lookup_var(name);
  }
};

bool path_contains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Pass A: declaration scan.

/// Parses one parameter list starting at the '(' and registers parameter
/// names into `file`, returning the ordered parameter dimensions.
std::vector<Dim> parse_params(std::string_view text, std::size_t open,
                              std::size_t close, FileInfo* file,
                              std::vector<Finding>* findings) {
  std::vector<Dim> dims;
  std::size_t start = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = i < close ? text[i] : ',';
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
    if (!(c == ',' && depth <= 0) && i < close) continue;
    std::string_view piece = text.substr(start, i - start);
    start = i + 1;
    if (piece.empty()) continue;
    // Tokenize the piece: find the declared dimension and the name.
    Dim dim = Dim::kNone;
    bool raw = false;
    std::string raw_word;
    std::string name;
    std::size_t name_pos = 0;
    for (std::size_t j = 0; j < piece.size();) {
      if (!ident_char(piece[j]) ||
          (j > 0 && ident_char(piece[j - 1]))) {
        if (piece[j] == '=') break;  // default argument: name is settled
        ++j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(piece[j])) != 0) {
        std::size_t e2 = j;
        while (e2 < piece.size() && ident_char(piece[e2])) ++e2;
        j = e2;
        continue;
      }
      std::size_t e = j;
      std::string w = read_ident(piece, j, &e);
      Dim d = alias_dim(w);
      if (d != Dim::kNone) {
        dim = d;
      } else if (raw_type_word(w)) {
        raw = true;
        if (raw_word.empty() || alias_capable_type(w)) raw_word = w;
      } else if (w != "its" && w != "std" && !keyword_operand(w)) {
        name = w;
        name_pos = j;
      }
      j = e;
    }
    dims.push_back(dim);
    if (name.empty()) continue;
    if (dim != Dim::kNone) {
      file->merge_local(name, dim);
    } else if (raw) {
      file->merge_local(name, count_vocab(name) ? Dim::kCount : Dim::kShadow);
      const Dim claimed = vocab_dim(name);
      if (claimed != Dim::kNone && alias_capable_type(raw_word) &&
          !file->exempt &&
          !(raw_word == "double" &&
            (!time_like(claimed) || rate_name(name)))) {
        const std::size_t off =
            static_cast<std::size_t>(piece.data() - text.data()) + name_pos;
        findings->push_back(
            {file->src.path, line_at(text, off), Rule::kUnitsAliasDecl,
             "parameter '" + name + "' is declared " + raw_word +
                 " but its vocabulary names " +
                 std::string(dim_name(claimed)) +
                 " — use the its:: alias from util/types.h"});
      }
    }
  }
  return dims;
}

/// Handles a declaration introduced by an alias or raw type word at
/// text[word_end...].  Registers variables/functions; emits
/// units-alias-decl for vocabulary-typed raw declarations.
void handle_decl(std::string_view text, std::size_t word_end, Dim dim,
                 const std::string& type_word, FileInfo* file, Registry* reg,
                 std::vector<Finding>* findings, std::size_t* resume) {
  std::size_t j = skip_ws(text, word_end);
  // Swallow cv-qualifiers, declarators and multi-word raw types
  // ("unsigned long long", "const Duration&").
  std::string raw_word = type_word;
  for (;;) {
    if (j < text.size() && (text[j] == '&' || text[j] == '*')) {
      ++j;
      j = skip_ws(text, j);
      continue;
    }
    std::size_t e = j;
    std::string w = read_ident(text, j, &e);
    if (w.empty()) break;
    if (w == "const" || w == "constexpr" || w == "inline" || w == "static" ||
        w == "volatile" || w == "mutable") {
      j = skip_ws(text, e);
      continue;
    }
    if (dim == Dim::kNone && raw_type_word(w)) {
      if (alias_capable_type(w)) raw_word = w;
      j = skip_ws(text, e);
      continue;
    }
    break;
  }
  std::size_t e = j;
  std::string name = read_ident(text, j, &e);
  if (name.empty() || keyword_operand(name) || raw_type_word(name) ||
      alias_dim(name) != Dim::kNone || name == "its" || name == "std")
    return;
  if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) return;
  std::size_t name_pos = j;
  // Qualified function names: Duration Simulator::total() — keep the last
  // component.
  std::size_t k = skip_ws(text, e);
  while (k + 1 < text.size() && text[k] == ':' && text[k + 1] == ':') {
    j = skip_ws(text, k + 2);
    name = read_ident(text, j, &e);
    if (name.empty()) return;
    name_pos = j;
    k = skip_ws(text, e);
  }
  if (k >= text.size()) return;
  if (text[k] == '(') {
    const std::size_t close = skip_balanced(text, k, '(', ')');
    if (close >= text.size()) return;
    // A definition/declaration, not a call: the list either declares
    // typed parameters or is empty, and we only register when the token
    // before the type word looked like a declaration context — which the
    // caller guarantees by only invoking handle_decl on type tokens.
    FnSig sig;
    sig.ret = dim;
    sig.params = parse_params(text, k, close - 1, file, findings);
    sig.params_known = true;
    reg->merge_fn(name, sig);
    *resume = close;
    return;
  }
  const bool decl_end =
      text[k] == '=' || text[k] == ';' || text[k] == ',' || text[k] == ')' ||
      text[k] == '{' ||
      (text[k] == ':' && (k + 1 >= text.size() || text[k + 1] != ':'));
  if (!decl_end) return;
  if (dim != Dim::kNone) {
    file->merge_local(name, dim);
    reg->merge_var(name, dim);
    return;
  }
  // Raw-typed variable: shadow locally, poison/seed globally, and check
  // the vocabulary against the alias catalogue.
  const Dim counted = count_vocab(name) ? Dim::kCount : Dim::kShadow;
  file->merge_local(name, counted);
  reg->merge_var(name, counted);
  const Dim claimed = vocab_dim(name);
  if (claimed == Dim::kNone || file->exempt) return;
  if (!alias_capable_type(raw_word)) return;
  if (raw_word == "double" && (!time_like(claimed) || rate_name(name)))
    return;
  findings->push_back(
      {file->src.path, line_at(text, name_pos), Rule::kUnitsAliasDecl,
       "'" + name + "' is declared " + raw_word +
           " but its vocabulary names " + std::string(dim_name(claimed)) +
           " — use the its:: alias from util/types.h (or keep it raw with a "
           "reasoned suppression)"});
}

void scan_decls(FileInfo* file, Registry* reg,
                std::vector<Finding>* findings) {
  const std::string_view text = file->code;
  for (std::size_t i = 0; i < text.size();) {
    if (!ident_char(text[i]) || (i > 0 && ident_char(text[i - 1]))) {
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      while (i < text.size() && ident_char(text[i])) ++i;
      continue;
    }
    std::size_t e = i;
    const std::string w = read_ident(text, i, &e);
    std::size_t resume = e;
    const Dim d = alias_dim(w);
    if (d != Dim::kNone) {
      // Skip non-declaration contexts: template args / casts end the
      // token with '>', ')' or '('; `using X = its::Duration;` ends ';'.
      handle_decl(text, e, d, w, file, reg, findings, &resume);
    } else if (raw_type_word(w) && w != "bool" && w != "char" &&
               w != "uint8_t" && w != "int8_t") {
      handle_decl(text, e, Dim::kNone, w, file, reg, findings, &resume);
    } else if (w == "void") {
      // Dimension-free functions still contribute call edges when their
      // parameters are dimensioned: void advance(Process&, Duration).
      handle_decl(text, e, Dim::kNone, w, file, reg, findings, &resume);
    }
    i = resume > e ? resume : e;
  }
}

// ---------------------------------------------------------------------------
// Pass B: operands.

struct Operand {
  Dim dim = Dim::kNone;
  bool known = false;
  bool literal = false;       ///< Plain (unsuffixed-by-units) literal.
  unsigned long long value = 0;
  bool decimal = false;       ///< Literal written in base 10.
  std::string name;
  std::size_t end = 0;        ///< One past the operand in the text.
};

/// Parses a numeric literal at `i` (which must be a digit).
Operand read_literal(std::string_view text, std::size_t i) {
  Operand op;
  op.literal = true;
  std::size_t j = i;
  bool hex = false;
  if (text[j] == '0' && j + 1 < text.size() &&
      (text[j + 1] == 'x' || text[j + 1] == 'X')) {
    hex = true;
    j += 2;
  }
  unsigned long long v = 0;
  bool overflow = false;
  std::string suffix;
  for (; j < text.size(); ++j) {
    const char c = text[j];
    if (c == '\'') continue;
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (hex && c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else if (hex && c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
    if (digit < 0) {
      if (ident_char(c)) {
        suffix += c;
        continue;
      }
      if (c == '.') {  // floating literal: dimensionless here
        while (j < text.size() && (ident_char(text[j]) || text[j] == '.'))
          ++j;
        op.literal = false;
        break;
      }
      break;
    }
    if (!suffix.empty()) break;
    const unsigned long long base = hex ? 16 : 10;
    if (v > (~0ull - static_cast<unsigned long long>(digit)) / base)
      overflow = true;
    else
      v = v * base + static_cast<unsigned long long>(digit);
  }
  op.end = j;
  op.value = overflow ? ~0ull : v;
  op.decimal = !hex;
  // Units-suffixed literals carry their dimension.
  if (suffix == "_ns" || suffix == "_us" || suffix == "_ms" ||
      suffix == "_s") {
    op.dim = Dim::kDur;
    op.known = true;
    op.literal = false;
  } else if (suffix == "_KiB" || suffix == "_MiB" || suffix == "_GiB") {
    op.dim = Dim::kBytes;
    op.known = true;
    op.literal = false;
  }
  return op;
}

/// Reads the operand beginning at/after `i`: a literal, or an identifier
/// chain (a.b->c, ns::x, f(...).g) resolved against the maps.
Operand read_operand_right(std::string_view text, std::size_t i,
                           const FileInfo& file, const Registry& reg) {
  Operand op;
  i = skip_ws(text, i);
  op.end = i;
  if (i >= text.size()) return op;
  if (std::isdigit(static_cast<unsigned char>(text[i])) != 0)
    return read_literal(text, i);
  if (text[i] == '(') {  // parenthesized / cast: unresolvable, but consume
    op.end = skip_balanced(text, i, '(', ')');
    return op;
  }
  if (text[i] == '~' || text[i] == '!' || text[i] == '-' || text[i] == '+' ||
      text[i] == '*' || text[i] == '&') {
    Operand inner = read_operand_right(text, i + 1, file, reg);
    inner.known = false;  // unary-op result: keep literal value for masks
    inner.dim = Dim::kNone;
    return inner;
  }
  if (!ident_char(text[i])) return op;
  std::size_t e = i;
  std::string name = read_ident(text, i, &e);
  bool member = false;
  op.end = e;
  for (;;) {
    std::size_t k = skip_ws(text, e);
    if (k + 1 < text.size() && text[k] == ':' && text[k + 1] == ':') {
      std::size_t j = skip_ws(text, k + 2);
      if (j >= text.size() || !ident_char(text[j])) break;
      name = read_ident(text, j, &e);
      op.end = e;
      continue;
    }
    if (k < text.size() && text[k] == '.' && k + 1 < text.size() &&
        ident_char(text[k + 1])) {
      member = true;
      name = read_ident(text, k + 1, &e);
      op.end = e;
      continue;
    }
    if (k + 2 < text.size() && text[k] == '-' && text[k + 1] == '>' &&
        ident_char(text[k + 2])) {
      member = true;
      name = read_ident(text, k + 2, &e);
      op.end = e;
      continue;
    }
    if (k < text.size() && text[k] == '(') {
      const std::size_t close = skip_balanced(text, k, '(', ')');
      std::size_t after = skip_ws(text, close);
      const bool chained =
          (after < text.size() && text[after] == '.') ||
          (after + 1 < text.size() && text[after] == '-' &&
           text[after + 1] == '>');
      if (chained) {  // mid-chain call: keep walking
        e = close;
        op.end = close;
        continue;
      }
      op.end = close;
      op.name = name;
      if (keyword_operand(name) || raw_type_word(name) ||
          alias_dim(name) != Dim::kNone)
        return op;
      auto it = reg.fns.find(name);
      if (it != reg.fns.end() && !it->second.conflict &&
          dimensioned(it->second.ret)) {
        op.dim = it->second.ret;
        op.known = true;
      }
      return op;
    }
    if (k < text.size() && text[k] == '[') {
      op.end = skip_balanced(text, k, '[', ']');
      return op;  // element type unknowable here
    }
    break;
  }
  op.name = name;
  if (keyword_operand(name) || raw_type_word(name) ||
      alias_dim(name) != Dim::kNone || name == "its" || name == "std")
    return op;
  const Dim d = file.resolve(reg, name, member);
  if (d != Dim::kNone && d != Dim::kShadow) {
    op.dim = d;
    op.known = d != Dim::kCount ? dimensioned(d) : true;
    if (d == Dim::kCount) op.known = true;
  }
  return op;
}

/// Reads the operand ending just before `op_pos` (scanning backwards).
Operand read_operand_left(std::string_view text, std::size_t op_pos,
                          const FileInfo& file, const Registry& reg) {
  Operand op;
  std::size_t k = op_pos;
  while (k > 0 &&
         std::isspace(static_cast<unsigned char>(text[k - 1])) != 0)
    --k;
  if (k == 0) return op;
  const char c = text[k - 1];
  if (!ident_char(c)) return op;  // ')', ']' etc.: unresolvable
  std::size_t start = k;
  while (start > 0 && ident_char(text[start - 1])) --start;
  if (std::isdigit(static_cast<unsigned char>(text[start])) != 0)
    return read_literal(text, start);
  std::string name(text.substr(start, k - start));
  bool member = false;
  if (start >= 1 && text[start - 1] == '.') {
    // Distinguish `a.b` from a floating literal `1.5`; the latter starts
    // with a digit further left, which read_literal above already caught.
    member = start >= 2 && ident_char(text[start - 2]);
    if (!member) return op;  // `.5`-style literal fragment
  } else if (start >= 2 && text[start - 2] == '-' && text[start - 1] == '>') {
    member = true;
  }
  op.name = name;
  if (keyword_operand(name) || raw_type_word(name) ||
      alias_dim(name) != Dim::kNone || name == "its" || name == "std")
    return op;
  const Dim d = file.resolve(reg, name, member);
  if (d != Dim::kNone && d != Dim::kShadow) {
    op.dim = d;
    op.known = true;
  }
  return op;
}

// ---------------------------------------------------------------------------
// Pass B: the checks.

struct Checker {
  const FileInfo& file;
  const Registry& reg;
  std::vector<Finding>* findings;
  std::string_view text;

  void add(std::size_t pos, Rule rule, std::string msg) {
    findings->push_back({file.src.path, line_at(text, pos), rule,
                         std::move(msg)});
  }

  static bool cmp_op(std::string_view op) {
    return op == "<" || op == ">" || op == "<=" || op == ">=" || op == "==" ||
           op == "!=";
  }

  /// Mixed-dimension / overflow / raw-literal checks for L <op> R.
  void check_binary(const Operand& l, const Operand& r, std::string_view op,
                    std::size_t pos) {
    // Raw time-scale literal next to a time quantity.  Division is unit
    // conversion (ns / 1000 for a µs report column), not a magnitude.
    auto raw_literal = [&](const Operand& dim_side, const Operand& lit) {
      if (op == "/") return;
      if (dim_side.known && time_like(dim_side.dim) && lit.literal &&
          lit.decimal && lit.value >= 1000 && lit.value % 1000 == 0)
        add(pos, Rule::kUnitsRawLiteral,
            "unsuffixed time-scale literal " + std::to_string(lit.value) +
                " next to '" + dim_side.name +
                "' — write it as _us/_ms/_s (util/types.h)");
    };
    raw_literal(l, r);
    raw_literal(r, l);
    if (!l.known || !r.known) return;
    if (l.dim == Dim::kCount || r.dim == Dim::kCount) {
      if (op == "*" && (l.dim == Dim::kDur || r.dim == Dim::kDur))
        add(pos, Rule::kUnitsOverflow,
            "raw Duration * count product ('" + l.name + "' * '" + r.name +
                "') can wrap at full-scale trace lengths — use checked_mul, "
                "saturating_mul or wide_mul (util/types.h)");
      return;
    }
    if (time_like(l.dim) != time_like(r.dim)) {
      add(pos, Rule::kUnitsMixedArith,
          "'" + l.name + "' (" + std::string(dim_name(l.dim)) + ") " +
              std::string(op) + " '" + r.name + "' (" +
              std::string(dim_name(r.dim)) +
              ") mixes time with space — convert explicitly");
      return;
    }
    if (time_like(l.dim)) {
      if (op == "*") {
        if (l.dim == Dim::kDur && r.dim == Dim::kDur)
          add(pos, Rule::kUnitsOverflow,
              "raw Duration * Duration product ('" + l.name + "' * '" +
                  r.name +
                  "') — use checked_mul, saturating_mul or wide_mul "
                  "(util/types.h)");
        else
          add(pos, Rule::kUnitsMixedArith,
              "multiplying a SimTime ('" +
                  (l.dim == Dim::kTime ? l.name : r.name) +
                  "') is dimensionally meaningless — points in time do not "
                  "scale");
        return;
      }
      if (op == "+" && l.dim == Dim::kTime && r.dim == Dim::kTime) {
        add(pos, Rule::kUnitsMixedArith,
            "'" + l.name + "' + '" + r.name +
                "' adds two SimTime points — the algebra is SimTime + "
                "Duration -> SimTime (util/types.h)");
        return;
      }
      if (op == "-" && l.dim == Dim::kDur && r.dim == Dim::kTime) {
        add(pos, Rule::kUnitsMixedArith,
            "'" + l.name + "' (Duration) - '" + r.name +
                "' (SimTime) — subtracting a point from a distance");
        return;
      }
      if (cmp_op(op) && l.dim != r.dim) {
        add(pos, Rule::kUnitsMixedArith,
            "comparing '" + l.name + "' (" + std::string(dim_name(l.dim)) +
                ") with '" + r.name + "' (" + std::string(dim_name(r.dim)) +
                ") — a point in time is not a duration");
        return;
      }
      return;
    }
    // Space group: page numbers never mix with byte-scaled quantities
    // without an explicit shift.
    if ((l.dim == Dim::kPage) != (r.dim == Dim::kPage) &&
        (op == "+" || op == "-" || cmp_op(op))) {
      add(pos, Rule::kUnitsMixedArith,
          "'" + l.name + "' (" + std::string(dim_name(l.dim)) + ") " +
              std::string(op) + " '" + r.name + "' (" +
              std::string(dim_name(r.dim)) +
              ") mixes page numbers with byte-scaled values — use "
              "vpn_of/page_base");
    }
  }

  /// Dimension of a +/- expression chain starting at `i`; unresolvable
  /// sub-terms poison the result.
  Operand eval_rhs(std::size_t i, std::size_t* end) {
    Operand acc = read_operand_right(text, i, file, reg);
    std::size_t k = acc.end;
    for (;;) {
      k = skip_ws(text, k);
      if (k >= text.size()) break;
      const char c = text[k];
      if (c == ';' || c == ',' || c == ')' || c == '}' || c == ']') break;
      if ((c == '+' || c == '-') && (k + 1 >= text.size() ||
                                     (text[k + 1] != '=' && text[k + 1] != c &&
                                      text[k + 1] != '>'))) {
        Operand rhs = read_operand_right(text, k + 1, file, reg);
        if (rhs.end <= k + 1) {  // no operand: bail
          acc.known = false;
          break;
        }
        if (acc.known && rhs.known) {
          acc.dim = combine(acc.dim, rhs.dim, c);
          acc.known = dimensioned(acc.dim);
        } else {
          acc.known = false;
        }
        acc.name += std::string(1, c) + rhs.name;
        k = rhs.end;
        continue;
      }
      // Any other operator ( *, /, <<, ?:, ...) leaves the chain.
      acc.known = false;
      break;
    }
    *end = k;
    return acc;
  }

  static Dim combine(Dim a, Dim b, char op) {
    if (op == '-') {
      if (a == Dim::kTime && b == Dim::kTime) return Dim::kDur;
      if (a == Dim::kTime && b == Dim::kDur) return Dim::kTime;
      if (a == Dim::kDur && b == Dim::kDur) return Dim::kDur;
      if (a == Dim::kAddr && b == Dim::kAddr) return Dim::kBytes;
      if (a == Dim::kAddr && b == Dim::kBytes) return Dim::kAddr;
      if (a == Dim::kBytes && b == Dim::kBytes) return Dim::kBytes;
      return Dim::kNone;
    }
    if ((a == Dim::kTime && b == Dim::kDur) ||
        (a == Dim::kDur && b == Dim::kTime))
      return Dim::kTime;
    if (a == Dim::kDur && b == Dim::kDur) return Dim::kDur;
    if ((a == Dim::kAddr && b == Dim::kBytes) ||
        (a == Dim::kBytes && b == Dim::kAddr))
      return Dim::kAddr;
    if (a == Dim::kBytes && b == Dim::kBytes) return Dim::kBytes;
    return Dim::kNone;
  }

  void check_assign(const Operand& l, std::string_view op, std::size_t pos,
                    std::size_t rhs_at) {
    std::size_t end = rhs_at;
    Operand rhs = eval_rhs(rhs_at, &end);
    // Raw time-scale literals anywhere in a time-dimensioned statement.
    if (l.known && time_like(l.dim)) {
      scan_raw_literals(rhs_at, l.name);
    }
    if (!l.known || !rhs.known) return;
    if (l.dim == Dim::kCount || rhs.dim == Dim::kCount) return;
    if (op == "=") {
      if (time_like(l.dim) != time_like(rhs.dim)) {
        add(pos, Rule::kUnitsMixedArith,
            "assigning " + std::string(dim_name(rhs.dim)) + " ('" + rhs.name +
                "') to '" + l.name + "' (" + std::string(dim_name(l.dim)) +
                ") mixes time with space");
      } else if (time_like(l.dim) && l.dim != rhs.dim) {
        add(pos, Rule::kUnitsMixedArith,
            "assigning " + std::string(dim_name(rhs.dim)) + " ('" + rhs.name +
                "') to '" + l.name + "' (" + std::string(dim_name(l.dim)) +
                ") — durations and points in time are distinct "
                "(util/types.h)");
      } else if ((l.dim == Dim::kPage) != (rhs.dim == Dim::kPage)) {
        add(pos, Rule::kUnitsMixedArith,
            "assigning " + std::string(dim_name(rhs.dim)) + " ('" + rhs.name +
                "') to '" + l.name + "' (" + std::string(dim_name(l.dim)) +
                ") — page numbers need an explicit vpn_of/page_base");
      }
      return;
    }
    // += / -= accumulate: the RHS must be a distance, never a point.
    if (time_like(l.dim) != time_like(rhs.dim)) {
      add(pos, Rule::kUnitsMixedArith,
          "'" + l.name + "' " + std::string(op) + " " + rhs.name +
              " mixes time with space");
      return;
    }
    if (time_like(l.dim) && rhs.dim == Dim::kTime) {
      add(pos, Rule::kUnitsMixedArith,
          "'" + l.name + "' " + std::string(op) + " '" + rhs.name +
              "' accumulates a SimTime point — accumulate Durations "
              "(end - start) instead");
      return;
    }
    if ((l.dim == Dim::kPage) != (rhs.dim == Dim::kPage)) {
      add(pos, Rule::kUnitsMixedArith,
          "'" + l.name + "' " + std::string(op) + " '" + rhs.name +
              "' mixes page numbers with byte-scaled values");
    }
  }

  /// Flags unsuffixed >=1000, %1000==0 decimal literals between `i` and
  /// the end of the statement (time-dimensioned contexts only).
  void scan_raw_literals(std::size_t i, const std::string& lhs_name) {
    for (std::size_t j = i; j < text.size() && text[j] != ';' &&
                            text[j] != '\n';) {
      if (std::isdigit(static_cast<unsigned char>(text[j])) != 0 &&
          (j == 0 || !ident_char(text[j - 1]))) {
        Operand lit = read_literal(text, j);
        if (lit.literal && lit.decimal && lit.value >= 1000 &&
            lit.value % 1000 == 0)
          add(j, Rule::kUnitsRawLiteral,
              "unsuffixed time-scale literal " + std::to_string(lit.value) +
                  " assigned to '" + lhs_name +
                  "' — write it as _us/_ms/_s (util/types.h)");
        j = lit.end > j ? lit.end : j + 1;
        continue;
      }
      ++j;
    }
  }

  /// units-shift-page: `>>12`, `<<12` (dimensioned/literal base) and
  /// `& 0xfff` masks.
  void check_shift(const Operand& l, std::string_view op, std::size_t pos,
                   std::size_t rhs_at) {
    std::size_t k = skip_ws(text, rhs_at);
    if (k >= text.size()) return;
    bool inverted = false;
    if (text[k] == '~') {
      inverted = true;
      k = skip_ws(text, k + 1);
    }
    if (k >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[k])) == 0)
      return;
    Operand lit = read_literal(text, k);
    if (op == ">>" && !inverted && lit.value == 12) {
      add(pos, Rule::kUnitsShiftPage,
          "manual '>> 12' page shift — use vpn_of/pfn_of or kPageShift "
          "(util/types.h)");
    } else if (op == "<<" && !inverted && lit.value == 12 &&
               (l.literal || (l.known && space_like(l.dim)))) {
      add(pos, Rule::kUnitsShiftPage,
          "manual '<< 12' page scaling — use kPageSize/kPageShift "
          "(util/types.h)");
    } else if (op == "&" && lit.value == 0xfff) {
      add(pos, Rule::kUnitsShiftPage,
          inverted ? "manual '& ~0xfff' page mask — use page_base "
                     "(util/types.h)"
                   : "manual '& 0xfff' offset mask — use kPageOffsetMask "
                     "(util/types.h)");
    }
  }

  /// units-narrow: static_cast<narrow>(time/size) and narrow decls
  /// initialized from a time/size quantity.
  void check_casts() {
    if (file.report_path) return;
    std::size_t at = 0;
    while ((at = text.find("static_cast", at)) != std::string_view::npos) {
      const std::size_t tok = at;
      at += 11;
      if ((tok > 0 && ident_char(text[tok - 1])) ||
          (at < text.size() && ident_char(text[at])))
        continue;
      std::size_t k = skip_ws(text, at);
      if (k >= text.size() || text[k] != '<') continue;
      const std::size_t close_t = skip_balanced(text, k, '<', '>');
      std::string target(text.substr(k + 1, close_t - k - 2));
      bool narrow = false;
      bool floating = false;
      for (std::size_t j = 0; j < target.size();) {
        if (!ident_char(target[j])) {
          ++j;
          continue;
        }
        std::size_t e = j;
        std::string w = read_ident(target, j, &e);
        if (narrow_type_word(w) && w != "unsigned") narrow = true;
        if (w == "unsigned" && target.find("long") == std::string::npos &&
            target.find("64") == std::string::npos)
          narrow = true;
        if (w == "double" || w == "float") floating = true;
        if (alias_dim(w) != Dim::kNone || w == "uint64_t" || w == "int64_t" ||
            w == "size_t") {
          narrow = false;
          floating = false;
          break;
        }
        j = e;
      }
      if (!narrow && !floating) continue;
      std::size_t p = skip_ws(text, close_t);
      if (p >= text.size() || text[p] != '(') continue;
      Operand arg = read_operand_right(text, p + 1, file, reg);
      std::size_t after_arg = skip_ws(text, arg.end);
      if (after_arg >= text.size() || text[after_arg] != ')')
        continue;  // compound expression inside the cast: ratios etc.
      if (!arg.known) continue;
      if (time_like(arg.dim) || arg.dim == Dim::kBytes) {
        add(tok, Rule::kUnitsNarrow,
            std::string(floating ? "promoting '" : "narrowing '") + arg.name +
                "' (" + std::string(dim_name(arg.dim)) + ") to " +
                (floating ? "floating point" : "a 32-bit-or-smaller type") +
                " outside the sanctioned report path (util/types.h keeps "
                "time and sizes in exact 64-bit integers)");
      }
    }
  }

  /// Narrow declarations initialized straight from a dimensioned
  /// identifier: `uint32_t t = deadline;`.
  void check_narrow_decls() {
    if (file.report_path) return;
    const std::string_view kWords[] = {"uint32_t", "int32_t", "uint16_t",
                                       "int16_t", "float", "double"};
    for (std::string_view w : kWords) {
      std::size_t at = 0;
      while ((at = text.find(w, at)) != std::string_view::npos) {
        const std::size_t tok = at;
        at += w.size();
        if ((tok > 0 && ident_char(text[tok - 1])) ||
            (at < text.size() && ident_char(text[at])))
          continue;
        std::size_t j = skip_ws(text, tok + w.size());
        std::size_t e = j;
        std::string name = read_ident(text, j, &e);
        if (name.empty() || keyword_operand(name) || raw_type_word(name))
          continue;
        std::size_t k = skip_ws(text, e);
        if (k >= text.size() || text[k] != '=' ||
            (k + 1 < text.size() && text[k + 1] == '='))
          continue;
        Operand rhs = read_operand_right(text, k + 1, file, reg);
        std::size_t after = skip_ws(text, rhs.end);
        if (after >= text.size() || text[after] != ';') continue;
        if (!rhs.known) continue;
        const bool floating = w == "float" || w == "double";
        if (floating && rate_name(name)) continue;
        if (time_like(rhs.dim) || rhs.dim == Dim::kBytes) {
          add(tok, Rule::kUnitsNarrow,
              "'" + name + "' (" + std::string(w) + ") initialized from '" +
                  rhs.name + "' (" + std::string(dim_name(rhs.dim)) +
                  ") " + (floating ? "promotes it to floating point"
                                   : "narrows it below 64 bits") +
                  " outside the sanctioned report path");
        }
      }
    }
  }

  /// Cross-file call edges: arguments checked against registered
  /// parameter dimensions.
  void check_calls() {
    for (std::size_t i = 0; i < text.size();) {
      if (!ident_char(text[i]) || (i > 0 && ident_char(text[i - 1]))) {
        ++i;
        continue;
      }
      std::size_t e = i;
      const std::string name = read_ident(text, i, &e);
      i = e;
      if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;
      auto it = reg.fns.find(name);
      if (it == reg.fns.end() || !it->second.params_known ||
          it->second.conflict)
        continue;
      const std::size_t open = skip_ws(text, e);
      if (open >= text.size() || text[open] != '(') continue;
      const std::size_t close = skip_balanced(text, open, '(', ')');
      const FnSig& sig = it->second;
      // Walk top-level arguments.
      std::size_t arg_start = open + 1;
      std::size_t arg_index = 0;
      int depth = 0;
      for (std::size_t k = open + 1; k < close && k < text.size(); ++k) {
        const char c = text[k];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        const bool at_end = k + 1 == close;
        if (!(c == ',' && depth <= 0) && !at_end) continue;
        const std::size_t arg_stop = at_end && c != ',' ? k + 1 : k;
        if (arg_index < sig.params.size() &&
            dimensioned(sig.params[arg_index])) {
          Operand arg =
              read_operand_right(text, arg_start, file, reg);
          const std::size_t after = skip_ws(text, arg.end);
          // Only single-operand arguments: composite expressions were
          // already checked by the binary scan.
          if (after >= arg_stop && arg.known &&
              arg.dim != Dim::kCount) {
            const Dim want = sig.params[arg_index];
            const bool bad =
                time_like(want) != time_like(arg.dim) ||
                (time_like(want) && want != arg.dim) ||
                ((want == Dim::kPage) != (arg.dim == Dim::kPage));
            if (bad)
              add(arg_start, Rule::kUnitsMixedArith,
                  "argument " + std::to_string(arg_index + 1) + " of '" +
                      name + "' expects " + std::string(dim_name(want)) +
                      " but '" + arg.name + "' is " +
                      std::string(dim_name(arg.dim)));
          }
        }
        ++arg_index;
        arg_start = k + 1;
      }
      i = open + 1;
    }
  }

  /// The operator walk: binary mixes, assignments, shifts, masks.
  void check_operators() {
    const std::string_view ops = "+-*/<>=!&%";
    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (ops.find(c) == std::string_view::npos) continue;
      const char c2 = i + 1 < text.size() ? text[i + 1] : '\0';
      const char c0 = i > 0 ? text[i - 1] : '\0';
      // Skip ->, ::, ++, --, &&, ||, comments already blanked.
      if (c == '-' && c2 == '>') { ++i; continue; }
      if ((c == '+' && c2 == '+') || (c == '-' && c2 == '-')) { ++i; continue; }
      if (c == '&' && c2 == '&') { ++i; continue; }
      if (c == '&' && c0 == '&') continue;
      if (c == '=' && (c0 == '<' || c0 == '>' || c0 == '!' || c0 == '=' ||
                       c0 == '+' || c0 == '-' || c0 == '*' || c0 == '/' ||
                       c0 == '%' || c0 == '&' || c0 == '|' || c0 == '^'))
        continue;
      std::string_view op;
      std::size_t rhs_at = i + 1;
      if ((c == '<' && c2 == '<') || (c == '>' && c2 == '>')) {
        if (i + 2 < text.size() && text[i + 2] == '=') { i += 2; continue; }
        op = c == '<' ? "<<" : ">>";
        rhs_at = i + 2;
      } else if ((c == '<' || c == '>' || c == '=' || c == '!') &&
                 c2 == '=') {
        op = text.substr(i, 2);
        rhs_at = i + 2;
      } else if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' ||
                  c == '&') &&
                 c2 == '=') {
        op = text.substr(i, 2);
        rhs_at = i + 2;
      } else {
        if (c == '!') continue;
        op = text.substr(i, 1);
      }
      Operand l = read_operand_left(text, i, file, reg);
      if (op == "<<" || op == ">>" || op == "&") {
        if (op != "&" || c2 != '=') check_shift(l, op, i, rhs_at);
        i = rhs_at - 1;
        continue;
      }
      if (op == "=" || op == "+=" || op == "-=") {
        check_assign(l, op, i, rhs_at);
        i = rhs_at - 1;
        continue;
      }
      if (op == "*=" || op == "/=" || op == "%=" || op == "%") {
        i = rhs_at - 1;
        continue;
      }
      Operand r = read_operand_right(text, rhs_at, file, reg);
      check_binary(l, r, op, i);
      i = rhs_at - 1;
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry points.

std::vector<Finding> scan_units_files(const std::vector<SourceFile>& files) {
  Registry reg;
  std::vector<FileInfo> infos;
  infos.reserve(files.size());
  for (const SourceFile& f : files) {
    FileInfo fi;
    fi.src = f;
    fi.code = joined_code(f);
    fi.exempt = path_contains(f.path, "util/types.h");
    fi.report_path = path_contains(f.path, "report") ||
                     path_contains(f.path, "stats") ||
                     path_contains(f.path, "table") ||
                     path_contains(f.path, "trace_json") ||
                     path_contains(f.path, "quantile") ||
                     path_contains(f.path, "csv");
    infos.push_back(std::move(fi));
  }
  // Pass A: declarations (alias-decl findings fall out of the walk).
  std::vector<std::vector<Finding>> per_file(infos.size());
  for (std::size_t i = 0; i < infos.size(); ++i)
    scan_decls(&infos[i], &reg, &per_file[i]);
  // Pass B: expressions, casts, calls.
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].exempt) {
      per_file[i].clear();
      continue;
    }
    Checker ch{infos[i], reg, &per_file[i], infos[i].code};
    ch.check_operators();
    ch.check_casts();
    ch.check_narrow_decls();
    ch.check_calls();
  }
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    // Deduplicate per (rule, line): several detectors can anchor at the
    // same expression.
    std::vector<Finding>& group = per_file[i];
    std::stable_sort(group.begin(), group.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
    group.erase(std::unique(group.begin(), group.end(),
                            [](const Finding& a, const Finding& b) {
                              return a.line == b.line && a.rule == b.rule;
                            }),
                group.end());
    std::vector<Finding> kept =
        filter_suppressed(infos[i].src, std::move(group));
    findings.insert(findings.end(), std::make_move_iterator(kept.begin()),
                    std::make_move_iterator(kept.end()));
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return findings;
}

UnitsOptions units_options_for_root(const std::string& root) {
  UnitsOptions o;
  o.root = root;
  o.src_dir = (fs::path(root) / "src").generic_string();
  return o;
}

std::vector<Finding> scan_units(const UnitsOptions& opts,
                                std::vector<std::string>* errors) {
  std::vector<SourceFile> files;
  for (const std::string& p : collect_tree(opts.src_dir, errors)) {
    SourceFile f;
    std::string err;
    if (!SourceFile::load(p, &f, &err)) {
      errors->push_back(err);
      continue;
    }
    f.path = fs::path(p).lexically_relative(opts.root).generic_string();
    files.push_back(std::move(f));
  }
  return scan_units_files(files);
}

}  // namespace its::lint
