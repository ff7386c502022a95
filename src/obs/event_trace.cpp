#include "obs/event_trace.h"

namespace its::obs {

std::uint64_t EventTrace::count(EventKind k) const {
  std::uint64_t n = 0;
  for (const Event& e : buf_)
    if (e.kind == k) ++n;
  return n;
}

std::uint64_t EventTrace::sum_b(EventKind k) const {
  std::uint64_t s = 0;
  for (const Event& e : buf_)
    if (e.kind == k) s += e.b;
  return s;
}

std::uint64_t EventTrace::sum_c(EventKind k) const {
  std::uint64_t s = 0;
  for (const Event& e : buf_)
    if (e.kind == k) s += e.c;
  return s;
}

}  // namespace its::obs
