// In-memory span log for the benchmark's traced pass.
//
// A span brackets one public call the benchmark makes into the simulator
// (trace.generate, core.Simulator.run, serve.run_serve, farm.task,
// obs.check_invariants, each layer replay).  Spans are recorded from the
// benchmark's own code only — nothing inside src/ is instrumented — kept in
// memory, and written out once at the end of the run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the log's origin.
  std::int64_t end_ns = 0;
  std::size_t parent = kNoParent;  ///< Index of the enclosing span.
  std::uint64_t sim = 0;           ///< Simulation id (0 = not one simulation).
};

/// Thread-safe: farm tasks open spans from worker threads.
class SpanLog {
 public:
  std::size_t begin(std::string name, std::size_t parent = kNoParent,
                    std::uint64_t sim = 0);
  void end(std::size_t id);

  std::vector<Span> spans() const;
  /// One JSON object per line: name, start_ns, end_ns, parent, sim, self_ns.
  void write_jsonl(std::ostream& os) const;

 private:
  std::int64_t now_ns() const;

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// makes it a no-op, so untraced code paths share the same call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::size_t parent = kNoParent,
             std::uint64_t sim = 0)
      : log_(log),
        id_(log ? log->begin(std::move(name), parent, sim) : kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::size_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.  Children may
/// overlap one another (farm tasks on two workers) and are clipped to the
/// parent's interval.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
