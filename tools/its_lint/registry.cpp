// Registry rule: the cross-file consistency check.
//
// One registry must agree with a source of truth the compiler cannot
// generate it from: SimConfig drives the configuration prose in docs/.
// The rule parses the struct and greps the docs for every field.
// (EventKind needs no rule: its names, Chrome phases and checker
// timelines are generated from the ITS_EVENT_KINDS table.  SimMetrics
// needs none either: its counters are declared once, in obs::RunTotals,
// one column list writes the CSV, and a test proves every counter word
// reaches it.)
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "lint.h"

namespace its::lint {

namespace {

namespace fs = std::filesystem;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string joined_code(const SourceFile& f) {
  std::string text;
  for (const std::string& l : f.code_lines) {
    text += l;
    text += '\n';
  }
  return text;
}

/// Offset of the `}` matching the `{` at `open` (npos on imbalance).
std::size_t match_brace(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

std::size_t next_nonspace(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0)
    ++i;
  return i;
}

}  // namespace

std::vector<std::string> parse_struct_fields(const SourceFile& f,
                                             std::string_view struct_name) {
  std::string text = joined_code(f);
  std::vector<std::string> out;
  std::size_t at = text.find("struct " + std::string(struct_name));
  if (at == std::string::npos) return out;
  std::size_t open = text.find('{', at);
  if (open == std::string::npos) return out;
  std::size_t close = match_brace(text, open);
  if (close == std::string_view::npos) return out;
  int depth = 0;  // nesting relative to the struct body
  std::size_t stmt_start = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    char c = text[i];
    if (c == '{' || c == '(') {
      ++depth;
    } else if (c == '}' || c == ')') {
      --depth;
      // A `}` back at member level ends a member-function body unless a
      // `;` follows (then it is a brace initializer: `Config cfg{};`).
      if (depth == 0 && c == '}') {
        std::size_t nxt = next_nonspace(text, i + 1);
        if (nxt >= text.size() || text[nxt] != ';') stmt_start = i + 1;
      }
    } else if (c == ';' && depth == 0) {
      std::string_view stmt(text.data() + stmt_start, i - stmt_start);
      stmt_start = i + 1;
      // A data member: `Type name;`, `Type name = init;`, `Type name{};`.
      // Anything with parentheses (functions) or keywords is skipped.
      if (stmt.find('(') != std::string_view::npos) continue;
      std::size_t eq = stmt.find('=');
      std::string_view decl =
          eq == std::string_view::npos ? stmt : stmt.substr(0, eq);
      // Field name: the last identifier of the declarator.
      std::size_t end = decl.size();
      while (end > 0 && !ident_char(decl[end - 1])) --end;
      std::size_t start = end;
      while (start > 0 && ident_char(decl[start - 1])) --start;
      if (start == end) continue;
      std::string name(decl.substr(start, end - start));
      if (name == "public" || name == "private" || name == "using" ||
          name == "struct" || name == "class" || name == "enum")
        continue;
      // Need at least one identifier (the type) before the name.
      std::string_view before = decl.substr(0, start);
      bool has_type = false;
      for (char b : before)
        if (ident_char(b)) has_type = true;
      if (has_type) out.push_back(std::move(name));
    }
  }
  return out;
}

RegistryInputs registry_inputs_for_root(const std::string& root) {
  RegistryInputs in;
  auto pick = [&](std::string rel) {
    fs::path p = fs::path(root) / rel;
    return fs::exists(p) ? p.string() : std::string();
  };
  in.config_h = pick("src/core/config.h");
  fs::path readme = fs::path(root) / "README.md";
  if (fs::exists(readme)) in.docs.push_back(readme.string());
  fs::path docs = fs::path(root) / "docs";
  if (fs::exists(docs)) {
    std::vector<std::string> found;
    for (const auto& e : fs::directory_iterator(docs))
      if (e.is_regular_file() && e.path().extension() == ".md")
        found.push_back(e.path().string());
    std::sort(found.begin(), found.end());
    in.docs.insert(in.docs.end(), found.begin(), found.end());
  }
  return in;
}

namespace {

bool load_or_report(const std::string& path, SourceFile* f,
                    std::vector<std::string>* errors) {
  if (path.empty()) return false;
  std::string err;
  if (SourceFile::load(path, f, &err)) return true;
  errors->push_back(err);
  return false;
}

}  // namespace

std::vector<Finding> scan_registry(const RegistryInputs& in,
                                   std::vector<std::string>* errors) {
  std::vector<Finding> out;

  SourceFile config_h;
  if (load_or_report(in.config_h, &config_h, errors)) {
    std::vector<std::string> fields =
        parse_struct_fields(config_h, "SimConfig");
    if (fields.empty()) {
      errors->push_back(in.config_h + ": could not parse struct SimConfig");
    } else if (!in.docs.empty()) {
      std::string all_docs;
      for (const std::string& doc : in.docs) {
        SourceFile d;
        std::string err;
        if (!SourceFile::load(doc, &d, &err)) {
          errors->push_back(err);
          continue;
        }
        for (const std::string& l : d.raw_lines) {
          all_docs += l;
          all_docs += '\n';
        }
      }
      for (const std::string& field : fields) {
        if (!contains_word(all_docs, field))
          out.push_back({in.config_h, 0, Rule::kRegConfigDoc,
                         "SimConfig field '" + field +
                             "' is not documented in README.md or docs/ "
                             "— every knob needs a written contract"});
      }
    }
  }

  return out;
}

}  // namespace its::lint
