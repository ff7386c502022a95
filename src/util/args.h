// Minimal command-line flag parser for the CLI driver and tools.
//
// Accepts `--key=value`, `--key value`, and bare boolean `--key`; anything
// else is positional.  No external dependencies, deterministic errors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace its::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Value of `--name=...` / `--name ...`, if present.
  std::optional<std::string> get(std::string_view name) const;

  /// True if `--name` appeared (with or without a value).
  bool has(std::string_view name) const;

  /// Typed getters with defaults; throw std::invalid_argument on parse
  /// failure (a misspelt number should not silently become the default).
  std::uint64_t get_u64(std::string_view name, std::uint64_t def) const;
  /// get_u64 that also throws when the value does not fit `unsigned`.
  unsigned get_unsigned(std::string_view name, unsigned def) const;
  /// Also throws on "nan"/"inf": no flag takes a non-finite value.
  double get_double(std::string_view name, double def) const;
  std::string get_string(std::string_view name, std::string def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never queried — typo detection.
  std::vector<std::string> unknown(std::initializer_list<std::string_view> known) const;

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;
  };
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace its::util
