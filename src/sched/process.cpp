#include "sched/process.h"

#include "trace/trace.h"
#include "util/types.h"

#include <stdexcept>

namespace its::sched {

namespace {
/// The trace, checked before the member initialisers read it.
const trace::Trace& checked(const std::shared_ptr<const trace::Trace>& t) {
  if (!t || t->empty()) throw std::invalid_argument("Process: trace must be non-empty");
  return *t;
}
}  // namespace

Process::Process(its::Pid pid, std::string name, int priority,
                 std::shared_ptr<const trace::Trace> trace)
    : pid_(pid),
      name_(std::move(name)),
      priority_(priority),
      trace_(std::move(trace)),
      mm_(pid, checked(trace_).touched_pages()) {}

}  // namespace its::sched
