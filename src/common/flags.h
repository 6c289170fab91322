// Minimal command-line flag parsing for examples and bench harnesses.
//
// Syntax: --name=value or --name value; bare --name sets a bool flag true.
// Unknown flags are collected so callers can reject or forward them
// (google-benchmark binaries forward leftovers to the benchmark library).

#ifndef DPBR_COMMON_FLAGS_H_
#define DPBR_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpbr {

/// Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parses argv[1..argc). Never fails; malformed tokens become
  /// positional arguments.
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const;

  /// Accessors with defaults: an absent flag reads as `default_value`.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Lenient: a present value outside true/false, 1/0, yes/no, on/off
  /// also reads as `default_value`. Prefer GetBoolOrStatus.
  bool GetBool(const std::string& name, bool default_value) const;

  /// Strict bool: true/1/yes/on or false/0/no/off (a bare --name is
  /// true). Any other present value, such as `--smoke=ture`, is an error
  /// naming the flag, never the default.
  [[nodiscard]] Result<bool> GetBoolOrStatus(const std::string& name,
                               bool default_value) const;

  /// Numeric accessors. A present flag that does not parse is an error,
  /// never the default: empty values, trailing garbage and out-of-range
  /// literals (strtod/strtoll ERANGE overflow or underflow, so 1e999 is
  /// never accepted as HUGE_VAL) all fail with a message naming the flag.
  [[nodiscard]] Result<int64_t> GetIntOrStatus(const std::string& name,
                                 int64_t default_value) const;
  [[nodiscard]] Result<double> GetDoubleOrStatus(const std::string& name,
                                   double default_value) const;

  /// Comma-separated list of doubles, e.g. --eps=0.125,0.25,2. Errors
  /// when any element does not parse or the list has no element.
  [[nodiscard]] Result<std::vector<double>> GetDoubleList(
      const std::string& name, const std::vector<double>& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dpbr

#endif  // DPBR_COMMON_FLAGS_H_
