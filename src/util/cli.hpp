// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name`.  Unknown
// flags are an error: experiment binaries should fail fast rather than
// silently ignore a mistyped parameter.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace whtlab::util {

class Cli {
 public:
  /// Declares a value flag with a help string; call before parse().
  void add_flag(const std::string& name, const std::string& help,
                std::optional<std::string> default_value = std::nullopt);

  /// Declares a boolean flag: `--name` sets it to "true" and never consumes
  /// the following token (so `--verbose input.txt` keeps the positional).
  void add_bool(const std::string& name, const std::string& help);

  /// Parses argv; returns false (after printing usage) on error or --help.
  bool parse(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback = "") const;
  /// Numeric values; text that is not wholly a number ("3abc", "2x") throws
  /// std::invalid_argument rather than reading its prefix.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Comma-separated integers ("1,2,4"); empty entries are skipped, and an
  /// entry that is not wholly an int ("2x", "99999999999") throws
  /// std::invalid_argument naming the flag.
  std::vector<int> get_int_list(const std::string& name) const;

  /// Positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    std::optional<std::string> default_value;
    bool boolean = false;
  };
  std::map<std::string, Flag> flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace whtlab::util
