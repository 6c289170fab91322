#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace dpbr {
namespace {

// strtod/strtoll accept out-of-range input: they clamp the result
// (±HUGE_VAL for doubles) and only report the problem through
// errno == ERANGE. Without the check, --eps=1e999 silently became an
// infinite privacy budget. Both helpers reject empty input, trailing
// garbage, overflow and underflow with a message naming the flag.
Result<double> ParseDouble(const std::string& name, const std::string& s) {
  if (s.empty()) {
    return Status::InvalidArgument("flag --" + name + " has an empty value");
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not a number: " + s);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument(
        "flag --" + name + " is out of double range (overflow/underflow): " +
        s);
  }
  return v;
}

Result<int64_t> ParseInt(const std::string& name, const std::string& s) {
  if (s.empty()) {
    return Status::InvalidArgument("flag --" + name + " has an empty value");
  }
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " is not an integer: " + s);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("flag --" + name +
                                   " is out of int64 range: " + s);
  }
  return v;
}

}  // namespace

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  Result<bool> v = GetBoolOrStatus(name, default_value);
  return v.ok() ? v.value() : default_value;
}

Result<bool> Flags::GetBoolOrStatus(const std::string& name,
                                    bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  return Status::InvalidArgument("flag --" + name + " is not a bool: " + s);
}

Result<int64_t> Flags::GetIntOrStatus(const std::string& name,
                                      int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseInt(name, it->second);
}

Result<double> Flags::GetDoubleOrStatus(const std::string& name,
                                        double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseDouble(name, it->second);
}

Result<std::vector<double>> Flags::GetDoubleList(
    const std::string& name, const std::vector<double>& default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    DPBR_ASSIGN_OR_RETURN(double v, ParseDouble(name, tok));
    out.push_back(v);
  }
  if (out.empty()) {
    return Status::InvalidArgument("flag --" + name + " has an empty list");
  }
  return out;
}

}  // namespace dpbr
