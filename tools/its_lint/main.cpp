// its_lint command-line driver.
//
//   its_lint [--root DIR] [--json] [--no-registry] [--no-arch]
//            [--no-units] [--arch-only] [--units-only] [--dot PATH]
//            [--list-rules] [paths...]
//
// With no paths, scans <root>/src with every rule.  Explicit paths run the
// per-file determinism rules on exactly those files/directories (the
// registry rule still resolves against --root unless --no-registry; the
// whole-program architecture and units passes only run on full-tree
// scans).  --arch-only / --units-only restrict a run to one whole-program
// family; --dot writes the module dependency graph as Graphviz to PATH
// ("-" for stdout).
//
// Exit codes: 0 clean, 1 usage/IO error, 10+N when rule N fired.  When
// several distinct rules fire, the exit code is the LOWEST firing rule's
// code (see --list-rules for the mapping).  Codes 15-19 and 28-32 are
// retired.
#include "lint.h"

#include <iostream>
#include <string>
#include <string_view>

namespace {

int list_rules() {
  std::cout << "exit  rule                 summary\n";
  for (std::size_t i = 0; i < its::lint::kNumRules; ++i) {
    auto r = static_cast<its::lint::Rule>(i);
    std::string id(its::lint::rule_id(r));
    if (id.empty()) continue;  // retired exit code
    id.resize(20, ' ');
    std::cout << "  " << its::lint::exit_code_for(r) << "  " << id << " "
              << its::lint::rule_summary(r) << "\n";
  }
  std::cout << "\nWhen several distinct rules fire in one run, the exit "
               "code is the lowest\nfiring rule's code.  Codes 15-19 and "
               "28-32 are retired.\n";
  return its::lint::kExitClean;
}

int usage(std::string_view msg) {
  std::cerr << "its_lint: " << msg << "\n"
            << "usage: its_lint [--root DIR] [--json] [--no-registry] "
               "[--no-arch] [--no-units] [--arch-only] [--units-only] "
               "[--dot PATH] [--list-rules] [paths...]\n";
  return its::lint::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  its::lint::LintOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--no-registry") {
      opts.registry = false;
    } else if (arg == "--no-arch") {
      opts.arch = false;
    } else if (arg == "--no-units") {
      opts.units = false;
    } else if (arg == "--arch-only") {
      opts.arch_only = true;
    } else if (arg == "--units-only") {
      opts.units_only = true;
    } else if (arg == "--dot") {
      if (i + 1 >= argc) return usage("--dot needs a path ('-' for stdout)");
      opts.dot_path = argv[++i];
    } else if (arg == "--list-rules") {
      return list_rules();
    } else if (arg == "--root") {
      if (i + 1 >= argc) return usage("--root needs a directory");
      opts.root = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return usage("unknown flag " + std::string(arg));
    } else {
      opts.paths.emplace_back(arg);
    }
  }
  if (opts.arch_only && !opts.arch)
    return usage("--arch-only and --no-arch are mutually exclusive");
  if (opts.units_only && !opts.units)
    return usage("--units-only and --no-units are mutually exclusive");
  if (opts.units_only && opts.arch_only)
    return usage("--arch-only and --units-only are mutually exclusive");

  its::lint::LintResult r = its::lint::run_lint(opts);
  if (opts.json)
    its::lint::print_json(std::cout, r);
  else
    its::lint::print_findings(std::cout, r);
  return r.exit_code();
}
