// Strict flag reads for the example binaries. A flag that is present but
// malformed (not a number, trailing garbage, out of range, an int flag
// outside int range, or a bool flag that is not true/false, 1/0, yes/no
// or on/off) prints the error and exits with status 1: `--eps=0.1x` must
// never run at the default ε.

#ifndef DPBR_EXAMPLES_STRICT_FLAGS_H_
#define DPBR_EXAMPLES_STRICT_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/status.h"

namespace dpbr {
namespace examples {

[[noreturn]] inline void ExitWith(const Status& status) {
  std::cerr << status.ToString() << "\n";
  std::exit(1);
}

template <typename T>
T ValueOrExit(Result<T> r) {
  if (!r.ok()) ExitWith(r.status());
  return std::move(r).value();
}

inline double DoubleFlag(const Flags& flags, const std::string& name,
                         double default_value) {
  return ValueOrExit(flags.GetDoubleOrStatus(name, default_value));
}

inline int64_t Int64Flag(const Flags& flags, const std::string& name,
                         int64_t default_value) {
  return ValueOrExit(flags.GetIntOrStatus(name, default_value));
}

inline bool BoolFlag(const Flags& flags, const std::string& name,
                     bool default_value) {
  return ValueOrExit(flags.GetBoolOrStatus(name, default_value));
}

inline int IntFlag(const Flags& flags, const std::string& name,
                   int default_value) {
  int64_t v = Int64Flag(flags, name, default_value);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    ExitWith(Status::InvalidArgument("flag --" + name +
                                     " is out of int range: " +
                                     std::to_string(v)));
  }
  return static_cast<int>(v);
}

}  // namespace examples
}  // namespace dpbr

#endif  // DPBR_EXAMPLES_STRICT_FLAGS_H_
