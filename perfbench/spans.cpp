#include "spans.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanLog::begin(std::string name, std::size_t parent,
                           std::uint64_t sim) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), t, t, parent, sim});
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id).end_ns = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << "{\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": ";
    if (s.parent == kNoParent)
      os << "null";
    else
      os << s.parent;
    os << ", \"sim\": " << s.sim << ", \"self_ns\": " << self[i] << "}\n";
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != kNoParent && s.parent < spans.size())
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union merged so far
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b <= a) continue;
      covered += b - a;
      reach = b;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
