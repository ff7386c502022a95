// Shared harness for the figure-reproduction benches.
//
// Each bench binary regenerates one table/figure from the paper: it runs
// the four §4.1 process batches under all five I/O-mode policies (identical
// traces, DRAM sizing and priorities per batch) and prints the same series
// the figure reports — values normalised to ITS, plus the raw measurements
// and the paper's reported range for comparison.
#pragma once

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "farm/farm.h"
#include "util/args.h"
#include "util/table.h"

namespace its::bench {

/// Every bench binary accepts `--jobs=N`: the run-farm width used for the
/// independent simulations behind a figure or sweep (0/absent = the farm
/// default — ITS_JOBS env or hardware_concurrency; 1 = serial reference).
inline unsigned jobs_from_args(int argc, char** argv) {
  util::Args args(argc, argv);
  return args.get_unsigned("jobs", 0);
}

/// Runs the full 4-batch × 5-policy grid on the run farm.
inline std::vector<core::BatchResult> run_grid(
    core::ExperimentConfig cfg = {}, int argc = 0, char** argv = nullptr) {
  if (argc != 0) cfg.jobs = jobs_from_args(argc, argv);
  std::cerr << "  running " << core::paper_batches().size()
            << " batches x 5 policies (--jobs="
            << (cfg.jobs == 0 ? farm::default_jobs() : cfg.jobs)
            << ") ..." << std::endl;
  return core::run_grid_all(cfg);
}

/// Every figure bench accepts an optional `--csv=DIR` flag; when given, the
/// grid behind the figure is exported for plotting/regression tracking.
inline void maybe_save_csv(int argc, char** argv,
                           const std::vector<core::BatchResult>& grid) {
  util::Args args(argc, argv);
  if (auto dir = args.get("csv")) {
    core::save_csv_files(*dir, grid);
    std::cout << "\nwrote " << *dir << "/its_metrics.csv and its_processes.csv\n";
  }
}

/// Prints one figure: rows = policies, columns = batches (the paper's
/// x-axis, "Number of Intensive Processes among Six Processes"),
/// cells = extractor(policy)/extractor(ITS).
inline void print_normalized(const std::string& title,
                             const std::vector<core::BatchResult>& grid,
                             double (*extract)(const core::SimMetrics&),
                             const std::string& paper_note) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "(normalised to ITS; x-axis = number of data-intensive "
               "processes among six)\n\n";
  std::vector<std::string> header{"policy"};
  for (const auto& r : grid) header.push_back(std::to_string(r.spec->data_intensive));
  util::Table t(header);
  for (core::PolicyKind k : core::kAllPolicies) {
    std::vector<std::string> row{std::string(core::policy_name(k))};
    for (const auto& r : grid) row.push_back(util::Table::fmt(r.normalized(k, extract), 2));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (!paper_note.empty()) std::cout << "\nPaper reports: " << paper_note << "\n";
}

/// Prints the raw (unnormalised) values behind a figure.
inline void print_raw(const std::string& title,
                      const std::vector<core::BatchResult>& grid,
                      double (*extract)(const core::SimMetrics&), double unit,
                      const std::string& unit_name) {
  std::cout << "\nRaw values (" << unit_name << "):\n";
  std::vector<std::string> header{"policy"};
  for (const auto& r : grid) header.push_back(std::string(r.spec->name));
  util::Table t(header);
  for (core::PolicyKind k : core::kAllPolicies) {
    std::vector<std::string> row{std::string(core::policy_name(k))};
    for (const auto& r : grid)
      row.push_back(util::Table::fmt(extract(r.by_policy.at(k)) / unit, 2));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  (void)title;
}

}  // namespace its::bench
