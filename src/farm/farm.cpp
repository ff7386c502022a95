#include "farm/farm.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

namespace its::farm {

namespace {
/// Set on farm worker threads, so nested run_indexed calls run inline
/// instead of spawning threads per outer task.
thread_local bool tl_in_worker = false;
}  // namespace

unsigned default_jobs() {
  if (const char* env = std::getenv("ITS_JOBS")) {
    const char* end = env + std::strlen(env);
    unsigned v = 0;
    auto [stop, ec] = std::from_chars(env, end, v);
    if (ec == std::errc() && stop == end && v > 0) return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool in_worker() { return tl_in_worker; }

void run_indexed(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task) {
  if (jobs == 0) jobs = default_jobs();
  // One slot per task: each is written by exactly one thread, and the
  // join publishes them, so no lock is needed.
  std::vector<std::exception_ptr> errors(n);
  auto run = [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  const std::size_t width = std::min<std::size_t>(jobs, n);
  if (width <= 1 || tl_in_worker) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    // jthread joins on destruction, also when a later spawn throws: the
    // workers already started drain the cursor before the error leaves.
    std::vector<std::jthread> workers;
    workers.reserve(width);
    for (std::size_t w = 0; w < width; ++w)
      workers.emplace_back([&] {
        tl_in_worker = true;
        for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
             k < n; k = next.fetch_add(1, std::memory_order_relaxed))
          run(n - 1 - k);  // top down: the paper grid's heaviest runs are last
      });
  }

  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace its::farm
