// farm — the run farm.
//
// Runs a batch of *independent* tasks (in this repo: whole simulation
// runs, each owning its RNG and event clock) on a few threads.  Each call
// spawns its workers, hands out indices from one atomic cursor and joins
// them.  Determinism contract: tasks are named by their index and results
// are collected by that index, so the output of a farm run is
// byte-identical at any width and in any execution order — the golden
// files do not know the farm exists.  The determinism matrix
// (tests/farm_test.cpp, ctest -L farm) and the TSan CI job enforce this;
// docs/concurrency.md states the contract.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace its::farm {

/// ITS_JOBS when it is a plain positive decimal that fits `unsigned`, else
/// std::thread::hardware_concurrency (never 0).
unsigned default_jobs();

/// True on a thread currently running a farm task.
bool in_worker();

/// Runs task(0), …, task(n-1) on min(jobs, n) threads (`jobs` 0 means
/// default_jobs()) and returns once every task finished.  Tasks must be
/// independent; they may run in any order on any thread.  Every task runs
/// even when others throw; the exception of the lowest failing index is
/// rethrown after the join.  A width of 1, and any call made from inside
/// a farm task, runs the tasks inline in ascending order — the serial
/// reference execution, and deadlock-free nesting.
void run_indexed(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task);

/// run_indexed that collects task(i) into slot i of the result.
template <typename R>
std::vector<R> run_collect(unsigned jobs, std::size_t n,
                           const std::function<R(std::size_t)>& task) {
  std::vector<R> out(n);
  run_indexed(jobs, n, [&](std::size_t i) { out[i] = task(i); });
  return out;
}

}  // namespace its::farm
