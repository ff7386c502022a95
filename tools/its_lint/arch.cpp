// Architecture rules: the whole-program include-graph checks.
//
// Where determinism.cpp polices single files and registry.cpp polices a
// handful of known registries, this pass parses every `#include "..."`
// edge under src/ into (a) a file-level include graph and (b) a
// module-level dependency graph (module = first path component, e.g.
// src/vm/mm.h -> "vm"), and checks:
//
//   arch-layer          the module graph against docs/architecture.layers.
//                       The manifest is exact, not an upper bound: an
//                       include the manifest does not allow fails, and so
//                       does a manifest edge no include realises — the
//                       committed layering can never drift from reality.
//   arch-cycle          header-level include cycles (full path reported).
//   arch-iwyu           a file referencing a project symbol whose defining
//                       header it only includes transitively.
//   arch-unused-include a project include contributing no referenced
//                       symbol.
//   arch-guard          headers missing #pragma once.
//   arch-dead-api       a symbol declared in a public header that no file
//                       outside the header (and its own .cpp) references,
//                       counting src/, tests/, tools/, examples/, bench/.
//
// Symbols are harvested with the same tokenizer the other passes use: a
// context-tracking scan over comment/string-blanked text that records
// namespace-scope struct/class/enum definitions, `using X = ...` aliases,
// constexpr constants, and free functions.  It is heuristic by design —
// the reasoned-suppression syntax applies to every rule here too.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <filesystem>

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

bool is_header(const std::string& path) {
  return path.size() >= 2 && (path.rfind(".h") == path.size() - 2 ||
                              (path.size() >= 4 &&
                               path.rfind(".hpp") == path.size() - 4));
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

/// One loaded file plus the derived views every rule shares.
struct ArchFile {
  SourceFile src;
  std::string rel;     ///< Path relative to the tree root (src/vm/mm.h).
  std::string module;  ///< First component under src/ ("" outside src/).
  std::string text;    ///< Joined code lines.
  std::vector<std::size_t> line_start;  ///< For offset -> line.
  std::set<std::string> idents;         ///< Every identifier in `text`.

  std::size_t line_of(std::size_t offset) const {
    auto it = std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<std::size_t>(it - line_start.begin());
  }
};

void build_views(ArchFile* f) {
  for (const std::string& l : f->src.code_lines) {
    f->line_start.push_back(f->text.size());
    f->text += l;
    f->text += '\n';
  }
  for (std::size_t i = 0; i < f->text.size();) {
    if (ident_char(f->text[i]) &&
        std::isdigit(static_cast<unsigned char>(f->text[i])) == 0) {
      std::size_t end = i;
      f->idents.insert(read_ident(f->text, i, &end));
      i = end;
    } else {
      ++i;
    }
  }
}

/// Whole-word search over a file's joined code (npos when absent).
std::size_t find_word(std::string_view text, std::string_view word) {
  std::size_t at = 0;
  while ((at = text.find(word, at)) != std::string_view::npos) {
    bool left_ok = at == 0 || !ident_char(text[at - 1]);
    std::size_t end = at + word.size();
    bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return at;
    at = end;
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Include extraction.

struct Include {
  std::string target;    ///< The quoted path, verbatim.
  std::size_t line = 0;  ///< 1-based.
};

/// Quoted includes only — system headers never participate in the module
/// graph.  The quoted path is read from the raw line (the tokenizer
/// blanks string literals), the directive itself is confirmed against the
/// blanked line so commented-out includes do not count.
std::vector<Include> parse_includes(const SourceFile& f) {
  std::vector<Include> out;
  for (std::size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& code = i < f.code_lines.size() ? f.code_lines[i] : "";
    std::size_t h = skip_ws(code, 0);
    if (h >= code.size() || code[h] != '#') continue;
    h = skip_ws(code, h + 1);
    if (code.compare(h, 7, "include") != 0) continue;
    const std::string& raw = f.raw_lines[i];
    std::size_t open = raw.find('"');
    if (open == std::string::npos) continue;  // <...> form
    std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back({raw.substr(open + 1, close - open - 1), i + 1});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exported-symbol harvesting.

struct Symbol {
  std::string name;
  std::size_t line = 0;
  bool type_like = false;  ///< Type/enum/alias/constant (vs free function).
};

constexpr std::string_view kSkipKeywords[] = {
    "inline",  "static",   "extern",   "virtual",  "explicit", "friend",
    "typename", "constinit", "consteval", "mutable", "volatile", "register",
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "operator", "new",
    "delete", "case", "do", "else", "goto", "throw", "try", "catch",
    "public", "private", "protected", "typedef", "concept", "requires",
    "co_await", "co_return", "co_yield", "export", "asm", "this",
    "true", "false", "nullptr", "default", "union", "assert",
};

constexpr std::string_view kBuiltinTypes[] = {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto", "wchar_t", "char8_t", "char16_t",
    "char32_t", "size_t", "ssize_t", "ptrdiff_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
};

bool in_list(std::string_view w, const std::string_view* list,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (list[i] == w) return true;
  return false;
}

/// Skips a balanced <...> starting at `open`; stops at ';' (not a
/// template after all).  Returns the offset just past the closing '>'.
std::size_t skip_angles(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>' && --depth == 0) return i + 1;
    if (text[i] == ';') return i;
  }
  return text.size();
}

std::size_t skip_to_matching_brace(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return text.size();
}

/// Namespace-scope declarations of one file.  Context tracking: `{`
/// pushed by a namespace keeps us "at namespace scope"; any other `{`
/// (type bodies, function bodies, initializers) hides its contents.
std::vector<Symbol> parse_exports(const ArchFile& f) {
  std::string_view text = f.text;
  std::vector<Symbol> out;
  // true = namespace brace, false = anything else.
  std::vector<bool> ctx;
  auto ns_scope = [&] {
    return std::all_of(ctx.begin(), ctx.end(), [](bool b) { return b; });
  };
  std::size_t i = 0;
  int parens = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '{') {
      ctx.push_back(false);
      ++i;
      continue;
    }
    if (c == '}') {
      if (!ctx.empty()) ctx.pop_back();
      ++i;
      continue;
    }
    if (c == '(') {
      ++parens;
      ++i;
      continue;
    }
    if (c == ')') {
      if (parens > 0) --parens;
      ++i;
      continue;
    }
    if (c == '#') {  // preprocessor directive: skip the line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (!ident_char(c) || std::isdigit(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    std::size_t start = i;
    std::size_t end = start;
    std::string w = read_ident(text, start, &end);
    i = end;
    if (w == "template") {
      std::size_t lt = skip_ws(text, i);
      if (lt < text.size() && text[lt] == '<') i = skip_angles(text, lt);
      continue;
    }
    if (w == "namespace") {
      while (i < text.size() && text[i] != '{' && text[i] != ';') ++i;
      if (i < text.size() && text[i] == '{') {
        ctx.push_back(true);
        ++i;
      }
      continue;
    }
    if (w == "struct" || w == "class") {
      std::size_t p = skip_ws(text, i);
      if (p >= text.size() || !ident_char(text[p])) continue;  // anonymous
      std::size_t name_end = p;
      std::string name = read_ident(text, p, &name_end);
      // alignas precedes the tag name — `struct alignas(64) Slot` — and
      // the tag, not the specifier, is the export.
      while (name == "alignas") {
        std::size_t a = skip_ws(text, name_end);
        if (a < text.size() && text[a] == '(') {
          int depth = 0;
          while (a < text.size()) {
            if (text[a] == '(') ++depth;
            if (text[a] == ')' && --depth == 0) {
              ++a;
              break;
            }
            ++a;
          }
        }
        a = skip_ws(text, a);
        if (a >= text.size() || !ident_char(text[a])) break;
        p = a;
        name = read_ident(text, p, &name_end);
      }
      std::size_t name_line = f.line_of(p);
      std::size_t q = skip_ws(text, name_end);
      if (q < text.size() && ident_char(text[q])) {  // "final"
        std::size_t fe = q;
        read_ident(text, q, &fe);
        q = skip_ws(text, fe);
      }
      if (q < text.size() && text[q] == '<') {  // specialization
        q = skip_ws(text, skip_angles(text, q));
      } else if (q < text.size() && (text[q] == '{' || text[q] == ':')) {
        if (ns_scope() && parens == 0)
          out.push_back({name, name_line, true});
      }
      i = name_end;
      continue;
    }
    if (w == "enum") {
      std::size_t p = skip_ws(text, i);
      if (text.compare(p, 5, "class") == 0 ||
          text.compare(p, 6, "struct") == 0) {
        std::size_t ke = p;
        read_ident(text, p, &ke);
        p = skip_ws(text, ke);
      }
      if (p >= text.size() || !ident_char(text[p])) continue;
      std::size_t name_end = p;
      std::string name = read_ident(text, p, &name_end);
      std::size_t name_line = f.line_of(p);
      std::size_t q = name_end;
      while (q < text.size() && text[q] != '{' && text[q] != ';') ++q;
      if (q < text.size() && text[q] == '{') {
        if (ns_scope() && parens == 0)
          out.push_back({name, name_line, true});
        i = skip_to_matching_brace(text, q);  // enumerators stay private
      } else {
        i = name_end;
      }
      continue;
    }
    if (w == "using") {
      std::size_t p = skip_ws(text, i);
      std::size_t name_end = p;
      std::string name =
          p < text.size() && ident_char(text[p]) ? read_ident(text, p,
                                                              &name_end)
                                                 : std::string();
      std::size_t q = skip_ws(text, name_end);
      if (!name.empty() && name != "namespace" && q < text.size() &&
          text[q] == '=' && ns_scope() && parens == 0)
        out.push_back({name, f.line_of(p), true});
      while (i < text.size() && text[i] != ';') ++i;
      continue;
    }
    if (w == "constexpr") {
      if (!ns_scope() || parens != 0) continue;
      // Scan the declaration: `= init;` is a constant, `(...)` a function
      // (the function branch below will pick the name up on its own).
      std::size_t q = i;
      int angles = 0;
      std::size_t last_ident_at = std::string_view::npos;
      std::string last_ident;
      while (q < text.size()) {
        char d = text[q];
        if (d == '<') ++angles;
        if (d == '>' && angles > 0) --angles;
        if (angles == 0 && (d == '=' || d == '(' || d == ';' || d == '{'))
          break;
        if (ident_char(d) &&
            std::isdigit(static_cast<unsigned char>(d)) == 0) {
          last_ident_at = q;
          last_ident = read_ident(text, q, &q);
          continue;
        }
        ++q;
      }
      if (q < text.size() && (text[q] == '=' || text[q] == '{') &&
          !last_ident.empty() &&
          !in_list(last_ident, kBuiltinTypes, std::size(kBuiltinTypes)))
        out.push_back({last_ident, f.line_of(last_ident_at), true});
      if (q < text.size() && (text[q] == '=' || text[q] == ';'))
        i = q;  // constants: nothing else to harvest before the ';'
      continue;
    }
    if (in_list(w, kSkipKeywords, std::size(kSkipKeywords)) ||
        in_list(w, kBuiltinTypes, std::size(kBuiltinTypes)))
      continue;
    // A free function: `name(` at namespace scope, unqualified (a leading
    // `::` means an out-of-line member of an already-indexed type).
    if (ns_scope() && parens == 0 && i < text.size() && text[i] == '(' &&
        !(start > 0 && text[start - 1] == ':'))
      out.push_back({w, f.line_of(start), false});
  }
  return out;
}

/// apply_suppressions both filters and *reports* malformed directives;
/// the determinism pass already reports those for every src file, so the
/// arch pass filters only.
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

}  // namespace

// ---------------------------------------------------------------------------
// Manifest.

bool parse_manifest(const SourceFile& f, std::vector<ManifestRow>* rows,
                    std::vector<std::string>* errors) {
  bool ok = true;
  std::vector<std::string> declared;
  for (std::size_t li = 0; li < f.raw_lines.size(); ++li) {
    std::string line = f.raw_lines[li];
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::size_t colon = line.find(':');
    std::size_t first = skip_ws(line, 0);
    if (first >= line.size()) continue;  // blank / comment-only
    if (colon == std::string::npos) {
      errors->push_back(f.path + ":" + std::to_string(li + 1) +
                        ": manifest line is not `module: deps...`");
      ok = false;
      continue;
    }
    ManifestRow row;
    row.line = li + 1;
    row.module = line.substr(first, colon - first);
    while (!row.module.empty() && row.module.back() == ' ')
      row.module.pop_back();
    if (row.module.empty() ||
        std::find(declared.begin(), declared.end(), row.module) !=
            declared.end()) {
      errors->push_back(f.path + ":" + std::to_string(li + 1) +
                        ": empty or duplicate module '" + row.module + "'");
      ok = false;
      continue;
    }
    std::size_t i = colon + 1;
    while (i < line.size()) {
      i = skip_ws(line, i);
      std::size_t start = i;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])) == 0)
        ++i;
      if (i == start) break;
      std::string dep = line.substr(start, i - start);
      if (dep == row.module ||
          std::find(declared.begin(), declared.end(), dep) ==
              declared.end()) {
        errors->push_back(
            f.path + ":" + std::to_string(li + 1) + ": dependency '" + dep +
            "' of '" + row.module +
            "' is not declared on an earlier line — the manifest is "
            "bottom-up, so this would be a layering inversion or a cycle");
        ok = false;
        continue;
      }
      row.deps.push_back(std::move(dep));
    }
    declared.push_back(row.module);
    rows->push_back(std::move(row));
  }
  return ok;
}

ArchOptions arch_options_for_root(const std::string& root) {
  ArchOptions o;
  o.root = root;
  o.src_dir = (fs::path(root) / "src").generic_string();
  o.manifest_path =
      (fs::path(root) / "docs" / "architecture.layers").generic_string();
  for (const char* tree : {"tests", "tools", "examples", "bench"}) {
    fs::path p = fs::path(root) / tree;
    std::error_code ec;
    if (fs::is_directory(p, ec)) o.usage_dirs.push_back(p.generic_string());
  }
  return o;
}

void print_dot(std::ostream& os, const ModuleGraph& g) {
  os << "// Module dependency graph, generated by `its_lint --dot`.\n"
     << "// Do not edit: CI diffs this file against a fresh run.\n"
     << "digraph its_modules {\n  rankdir=BT;\n  node [shape=box];\n";
  for (const std::string& m : g.modules) os << "  \"" << m << "\";\n";
  for (const ModuleGraph::Edge& e : g.edges)
    os << "  \"" << e.from << "\" -> \"" << e.to << "\";\n";
  os << "}\n";
}

// ---------------------------------------------------------------------------
// The pass.

std::vector<Finding> scan_architecture(const ArchOptions& opts,
                                       ModuleGraph* graph,
                                       std::vector<std::string>* errors) {
  std::vector<Finding> out;

  // -- Load the manifest.
  SourceFile manifest;
  std::string err;
  std::vector<ManifestRow> rows;
  if (!SourceFile::load(opts.manifest_path, &manifest, &err)) {
    errors->push_back(err + " (the layer manifest is required; see "
                            "docs/architecture.md)");
    return out;
  }
  if (!parse_manifest(manifest, &rows, errors)) return out;

  // -- Load every file: src/ builds the graph, usage trees only witness
  //    symbol references.
  std::vector<ArchFile> files;
  {
    std::vector<std::string> all = collect_tree(opts.src_dir, errors);
    for (const std::string& dir : opts.usage_dirs) {
      std::vector<std::string> extra = collect_tree(dir, errors);
      all.insert(all.end(), extra.begin(), extra.end());
    }
    for (const std::string& p : all) {
      ArchFile f;
      if (!SourceFile::load(p, &f.src, &err)) {
        errors->push_back(err);
        continue;
      }
      f.rel = fs::path(p).lexically_relative(opts.root).generic_string();
      std::string in_src =
          fs::path(p).lexically_relative(opts.src_dir).generic_string();
      if (in_src.compare(0, 2, "..") != 0) {
        std::size_t slash = in_src.find('/');
        if (slash != std::string::npos) f.module = in_src.substr(0, slash);
      }
      build_views(&f);
      files.push_back(std::move(f));
    }
  }

  // src-relative include path ("vm/mm.h") -> files index.
  std::map<std::string, std::size_t> by_inc_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].module.empty()) continue;
    by_inc_path[fs::path(files[i].src.path)
                    .lexically_relative(opts.src_dir)
                    .generic_string()] = i;
  }

  // -- File-level include graph over src/ (targets resolved against
  //    src_dir; anything else — system or third-party — is ignored).
  struct FileEdge {
    std::size_t to;
    std::size_t line;
    std::string spelled;
  };
  std::vector<std::vector<FileEdge>> inc(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].module.empty()) continue;
    for (const Include& in : parse_includes(files[i].src)) {
      auto it = by_inc_path.find(in.target);
      if (it == by_inc_path.end()) continue;
      inc[i].push_back({it->second, in.line, in.target});
    }
  }

  // -- Module graph.
  ModuleGraph g;
  {
    std::set<std::string> mods;
    for (const ArchFile& f : files)
      if (!f.module.empty()) mods.insert(f.module);
    g.modules.assign(mods.begin(), mods.end());
    std::map<std::pair<std::string, std::string>, ModuleGraph::Edge> edges;
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (const FileEdge& e : inc[i]) {
        const std::string& from = files[i].module;
        const std::string& to = files[e.to].module;
        if (from == to) continue;
        auto key = std::make_pair(from, to);
        auto it = edges.find(key);
        // First witness in (file, line) order — collection is sorted.
        if (it == edges.end())
          edges.emplace(key,
                        ModuleGraph::Edge{from, to, files[i].rel, e.line});
      }
    }
    for (auto& [key, e] : edges) g.edges.push_back(std::move(e));
  }
  if (graph != nullptr) *graph = g;

  // -- arch-layer: observed ⊆ manifest AND manifest ⊆ observed.
  std::map<std::string, const ManifestRow*> row_of;
  std::vector<std::string> declared_order;
  for (const ManifestRow& r : rows) {
    row_of[r.module] = &r;
    declared_order.push_back(r.module);
  }
  auto declared_at = [&](const std::string& m) {
    auto it = std::find(declared_order.begin(), declared_order.end(), m);
    return it == declared_order.end()
               ? declared_order.size()
               : static_cast<std::size_t>(it - declared_order.begin());
  };
  for (const std::string& m : g.modules) {
    if (row_of.find(m) == row_of.end())
      out.push_back({manifest.path, 0, Rule::kArchLayer,
                     "module '" + m +
                         "' exists under src/ but has no row in the layer "
                         "manifest — declare it and its dependencies"});
  }
  for (const ModuleGraph::Edge& e : g.edges) {
    auto it = row_of.find(e.from);
    if (it == row_of.end()) continue;  // reported above
    const std::vector<std::string>& deps = it->second->deps;
    if (std::find(deps.begin(), deps.end(), e.to) != deps.end()) continue;
    bool above = declared_at(e.to) >= declared_at(e.from);
    out.push_back(
        {e.file, e.line, Rule::kArchLayer,
         "module '" + e.from + "' may not depend on '" + e.to + "': " +
             (above ? "'" + e.to + "' is a layer above it"
                    : "the edge is not in its manifest row") +
             " (docs/architecture.layers)"});
  }
  for (const ManifestRow& r : rows) {
    bool module_exists =
        std::find(g.modules.begin(), g.modules.end(), r.module) !=
        g.modules.end();
    if (!module_exists) {
      out.push_back({manifest.path, r.line, Rule::kArchLayer,
                     "manifest declares module '" + r.module +
                         "' but src/ has no such module — delete the row"});
      continue;
    }
    for (const std::string& dep : r.deps) {
      bool realised = std::any_of(
          g.edges.begin(), g.edges.end(), [&](const ModuleGraph::Edge& e) {
            return e.from == r.module && e.to == dep;
          });
      if (!realised)
        out.push_back({manifest.path, r.line, Rule::kArchLayer,
                       "manifest allows '" + r.module + " -> " + dep +
                           "' but no include realises it — the manifest "
                           "must stay exact, delete the stale edge"});
    }
  }

  // -- arch-cycle: DFS over the file-level graph.  Only headers can close
  //    a cycle (nothing includes a .cpp), but every node is walked so the
  //    report names the full path.
  {
    std::vector<int> color(files.size(), 0);  // 0 white, 1 gray, 2 black
    std::vector<std::size_t> stack;
    std::set<std::string> seen_cycles;
    // Iterative DFS with an explicit edge cursor per frame.
    std::vector<std::size_t> cursor(files.size(), 0);
    for (std::size_t root = 0; root < files.size(); ++root) {
      if (color[root] != 0 || files[root].module.empty()) continue;
      stack.push_back(root);
      color[root] = 1;
      while (!stack.empty()) {
        std::size_t u = stack.back();
        if (cursor[u] >= inc[u].size()) {
          color[u] = 2;
          stack.pop_back();
          continue;
        }
        const FileEdge& e = inc[u][cursor[u]++];
        std::size_t v = e.to;
        if (color[v] == 0) {
          color[v] = 1;
          stack.push_back(v);
        } else if (color[v] == 1) {
          // Cycle: the stack from v to u, closed by u -> v.
          auto at = std::find(stack.begin(), stack.end(), v);
          std::vector<std::size_t> cyc(at, stack.end());
          auto smallest = std::min_element(
              cyc.begin(), cyc.end(), [&](std::size_t a, std::size_t b) {
                return files[a].rel < files[b].rel;
              });
          std::rotate(cyc.begin(), smallest, cyc.end());
          std::string path;
          for (std::size_t n : cyc) path += files[n].rel + " -> ";
          path += files[cyc.front()].rel;
          if (seen_cycles.insert(path).second) {
            // Anchor at the first file's include of the next cycle member.
            std::size_t line = 0;
            for (const FileEdge& fe : inc[cyc.front()])
              if (fe.to == cyc[1 % cyc.size()] ||
                  (cyc.size() == 1 && fe.to == cyc.front())) {
                line = fe.line;
                break;
              }
            out.push_back({files[cyc.front()].rel, line, Rule::kArchCycle,
                           "include cycle: " + path});
          }
        }
      }
    }
  }

  // -- Symbol index over src headers.
  struct Exported {
    std::size_t header;  ///< files index.
    std::size_t line;
    bool type_like;
  };
  std::map<std::string, std::vector<Exported>> index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].module.empty() || !is_header(files[i].src.path)) continue;
    for (const Symbol& s : parse_exports(files[i]))
      index[s.name].push_back({i, s.line, s.type_like});
  }
  // Per-header export lists (deduped names).
  std::map<std::size_t, std::vector<std::string>> exports_of;
  for (const auto& [name, defs] : index)
    for (const Exported& d : defs) {
      auto& v = exports_of[d.header];
      if (std::find(v.begin(), v.end(), name) == v.end())
        v.push_back(name);
    }

  // Locally-declared names per file (any kind), to mute IWYU when a file
  // has its own definition of a name.  Template parameters count: a
  // `template <typename Args>` pack shadows any project symbol of the same
  // name, so its uses are not references to that symbol.
  std::vector<std::set<std::string>> local_decls(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].module.empty()) continue;
    for (const Symbol& s : parse_exports(files[i]))
      local_decls[i].insert(s.name);
    const std::string& text = files[i].text;
    for (std::size_t at = 0; at + 8 < text.size(); ++at) {
      if (at != 0 && ident_char(text[at - 1])) continue;
      std::size_t kw = 0;
      if (text.compare(at, 8, "typename") == 0 && !ident_char(text[at + 8]))
        kw = 8;
      else if (text.compare(at, 5, "class") == 0 && !ident_char(text[at + 5]))
        kw = 5;
      if (kw == 0) continue;
      std::size_t j = skip_ws(text, at + kw);
      if (text.compare(j, 3, "...") == 0) j = skip_ws(text, j + 3);
      std::size_t end = j;
      std::string name = read_ident(text, j, &end);
      if (!name.empty()) local_decls[i].insert(name);
    }
  }

  auto sibling_of = [&](std::size_t header) {
    fs::path p(files[header].src.path);
    fs::path cpp = p.parent_path() / (p.stem().string() + ".cpp");
    std::string want = cpp.generic_string();
    for (std::size_t i = 0; i < files.size(); ++i)
      if (files[i].src.path == want) return i;
    return files.size();
  };

  // -- arch-iwyu + arch-unused-include, per src file.
  for (std::size_t i = 0; i < files.size(); ++i) {
    const ArchFile& f = files[i];
    if (f.module.empty()) continue;
    std::set<std::size_t> direct;
    for (const FileEdge& e : inc[i]) direct.insert(e.to);

    // IWYU: a referenced name with exactly one defining header that is
    // neither this file nor directly included.
    std::vector<Finding> per_file;
    for (const auto& [name, defs] : index) {
      if (defs.size() != 1 || !defs.front().type_like) continue;
      std::size_t h = defs.front().header;
      if (h == i || direct.count(h) != 0) continue;
      if (local_decls[i].count(name) != 0) continue;
      if (f.idents.count(name) == 0) continue;
      std::size_t at = find_word(f.text, name);
      std::string spelled = fs::path(files[h].src.path)
                                .lexically_relative(opts.src_dir)
                                .generic_string();
      per_file.push_back(
          {f.rel, f.line_of(at), Rule::kArchIwyu,
           "'" + name + "' is defined in \"" + spelled +
               "\" which this file does not directly include — relying "
               "on a transitive include breaks when intermediates slim "
               "down; include it directly"});
    }

    // Unused includes: no exported name of the target is referenced.
    fs::path own(f.src.path);
    std::string own_header =
        (own.parent_path() / (own.stem().string() + ".h")).generic_string();
    for (const FileEdge& e : inc[i]) {
      if (files[e.to].src.path == own_header) continue;  // own header
      auto ex = exports_of.find(e.to);
      if (ex == exports_of.end()) continue;  // nothing harvested: no claim
      bool used = std::any_of(
          ex->second.begin(), ex->second.end(),
          [&](const std::string& n) { return f.idents.count(n) != 0; });
      if (!used)
        per_file.push_back(
            {f.rel, e.line, Rule::kArchUnusedInclude,
             "no symbol exported by \"" + e.spelled +
                 "\" is referenced here — delete the include (or include "
                 "what is actually used)"});
    }
    std::vector<Finding> kept = filter_suppressed(f.src, std::move(per_file));
    out.insert(out.end(), std::make_move_iterator(kept.begin()),
               std::make_move_iterator(kept.end()));
  }

  // -- arch-guard: every src header carries #pragma once.
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].module.empty() || !is_header(files[i].src.path)) continue;
    if (files[i].text.find("#pragma once") == std::string::npos)
      out.push_back({files[i].rel, 1, Rule::kArchGuard,
                     "header has no #pragma once — double inclusion is a "
                     "latent ODR break"});
  }

  // -- arch-dead-api: exported names nobody outside the header (and its
  //    own .cpp) references, across src/ and every usage tree.
  for (const auto& [name, defs] : index) {
    if (defs.size() != 1) continue;  // shared names: any use is ambiguous
    const Exported& d = defs.front();
    std::size_t sib = sibling_of(d.header);
    bool referenced = false;
    for (std::size_t i = 0; i < files.size() && !referenced; ++i) {
      if (i == d.header || i == sib) continue;
      if (files[i].idents.count(name) != 0) referenced = true;
    }
    if (referenced) continue;
    std::vector<Finding> one;
    one.push_back(
        {files[d.header].rel, d.line, Rule::kArchDeadApi,
         "'" + name + "' is public API of " + files[d.header].rel +
             " but no other file in src/, tests/, tools/, examples/ or "
             "bench/ references it — delete it or cover it with a test"});
    std::vector<Finding> kept =
        filter_suppressed(files[d.header].src, std::move(one));
    out.insert(out.end(), kept.begin(), kept.end());
  }

  // -- Reasoned suppressions, for every rule in the family: a finding
  //    anchored in a source file honours that file's allow() comments, and
  //    manifest-anchored findings honour trailing `# its-lint: allow(...)`
  //    tags on their own line.  (Repeat filtering is idempotent; the
  //    per-finding filters above only pre-trim their own loops.)
  {
    std::map<std::string, std::size_t> by_rel;
    for (std::size_t i = 0; i < files.size(); ++i) by_rel[files[i].rel] = i;
    std::map<std::string, std::vector<Finding>> grouped;
    std::vector<Finding> rest;
    for (Finding& fi : out) {
      if (fi.file == manifest.path || by_rel.count(fi.file) != 0)
        grouped[fi.file].push_back(std::move(fi));
      else
        rest.push_back(std::move(fi));
    }
    out = std::move(rest);
    for (auto& [file, group] : grouped) {
      const SourceFile& src =
          file == manifest.path ? manifest : files[by_rel[file]].src;
      std::vector<Finding> kept = filter_suppressed(src, std::move(group));
      out.insert(out.end(), std::make_move_iterator(kept.begin()),
                 std::make_move_iterator(kept.end()));
    }
  }

  return out;
}

}  // namespace its::lint
