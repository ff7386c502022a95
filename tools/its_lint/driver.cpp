// File collection and the end-to-end lint run.
#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace its::lint {

namespace {

namespace fs = std::filesystem;

bool cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// Expands files/directories into a sorted, deduplicated file list —
/// sorted so findings (and exit codes) are stable across filesystems.
std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       std::vector<std::string>* errors) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    fs::path path(p);
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec))
        if (it->is_regular_file() && cpp_source(it->path()))
          files.push_back(it->path().generic_string());
      if (ec) errors->push_back(p + ": " + ec.message());
    } else if (fs::exists(path, ec)) {
      files.push_back(path.generic_string());
    } else {
      errors->push_back(p + ": no such file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Findings ordered by rule (the exit-code order), then location.
void sort_findings(std::vector<Finding>* findings) {
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
}

}  // namespace

std::vector<Finding> lint_file(const SourceFile& f) {
  return apply_suppressions(f, scan_determinism(f));
}

LintResult run_lint(const LintOptions& opts) {
  LintResult r;
  std::vector<std::string> roots = opts.paths;
  const bool default_scan = roots.empty();
  if (default_scan)
    roots.push_back(
        (std::filesystem::path(opts.root) / "src").generic_string());

  if (!opts.arch_only && !opts.units_only) {
    for (const std::string& path : collect_files(roots, &r.errors)) {
      SourceFile f;
      std::string err;
      if (!SourceFile::load(path, &f, &err)) {
        r.errors.push_back(err);
        continue;
      }
      std::vector<Finding> fs = lint_file(f);
      r.findings.insert(r.findings.end(),
                        std::make_move_iterator(fs.begin()),
                        std::make_move_iterator(fs.end()));
    }

    if (opts.registry) {
      std::vector<Finding> reg =
          scan_registry(registry_inputs_for_root(opts.root), &r.errors);
      r.findings.insert(r.findings.end(),
                        std::make_move_iterator(reg.begin()),
                        std::make_move_iterator(reg.end()));
    }
  }

  // The architecture pass is whole-program: it runs on full-tree scans
  // (and under --arch-only / --dot), never for explicit file lists.
  const bool want_dot = !opts.dot_path.empty();
  if (!opts.units_only &&
      ((opts.arch && default_scan) || opts.arch_only || want_dot)) {
    ModuleGraph graph;
    std::vector<Finding> arch = scan_architecture(
        arch_options_for_root(opts.root), &graph, &r.errors);
    r.findings.insert(r.findings.end(),
                      std::make_move_iterator(arch.begin()),
                      std::make_move_iterator(arch.end()));
    if (want_dot) {
      if (opts.dot_path == "-") {
        print_dot(std::cout, graph);
      } else {
        std::ofstream dot(opts.dot_path);
        if (!dot)
          r.errors.push_back("cannot write " + opts.dot_path);
        else
          print_dot(dot, graph);
      }
    }
  }

  // The units pass is whole-program as well: dimension maps span every
  // file, so it runs on full-tree scans (and --units-only) only.
  if (!opts.arch_only &&
      ((opts.units && default_scan) || opts.units_only)) {
    std::vector<Finding> units =
        scan_units(units_options_for_root(opts.root), &r.errors);
    r.findings.insert(r.findings.end(),
                      std::make_move_iterator(units.begin()),
                      std::make_move_iterator(units.end()));
  }

  sort_findings(&r.findings);
  return r;
}

}  // namespace its::lint
