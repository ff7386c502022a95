#include "util/args.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace its::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional_.emplace_back(a);
      continue;
    }
    a.remove_prefix(2);
    auto eq = a.find('=');
    if (eq != std::string_view::npos) {
      flags_.push_back({std::string(a.substr(0, eq)), std::string(a.substr(eq + 1))});
      continue;
    }
    // `--key value` if the next token is not itself a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.push_back({std::string(a), std::string(argv[++i])});
    } else {
      flags_.push_back({std::string(a), std::nullopt});
    }
  }
}

std::optional<std::string> Args::get(std::string_view name) const {
  for (const auto& f : flags_)
    if (f.name == name) return f.value;
  return std::nullopt;
}

bool Args::has(std::string_view name) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
}

std::uint64_t Args::get_u64(std::string_view name, std::uint64_t def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  // from_chars takes digits only: no sign, no whitespace, no wrap-around
  // ("-1" is not 2^64-1).
  const char* end = v->data() + v->size();
  std::uint64_t out = 0;
  auto [stop, ec] = std::from_chars(v->data(), end, out);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument("--" + std::string(name) + ": out of range: " + *v);
  if (ec != std::errc() || stop != end)
    throw std::invalid_argument("--" + std::string(name) + ": not an integer: " + *v);
  return out;
}

unsigned Args::get_unsigned(std::string_view name, unsigned def) const {
  std::uint64_t v = get_u64(name, def);
  if (v > std::numeric_limits<unsigned>::max())
    throw std::invalid_argument("--" + std::string(name) +
                                ": out of range: " + std::to_string(v));
  return static_cast<unsigned>(v);
}

double Args::get_double(std::string_view name, double def) const {
  auto v = get(name);
  if (!v || v->empty()) return def;
  try {
    std::size_t pos = 0;
    double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing characters");
    // stod accepts "nan" and "inf"; no flag means either, and a NaN slips
    // through every range check downstream.
    if (!std::isfinite(out)) throw std::invalid_argument("not finite");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + std::string(name) +
                                ": not a finite number: " + *v);
  }
}

std::string Args::get_string(std::string_view name, std::string def) const {
  auto v = get(name);
  return v ? *v : def;
}

std::vector<std::string> Args::unknown(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> out;
  for (const auto& f : flags_)
    if (std::find(known.begin(), known.end(), f.name) == known.end())
      out.push_back(f.name);
  return out;
}

}  // namespace its::util
