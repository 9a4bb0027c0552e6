// Minimal command-line option parser for the examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag`. Unknown
// options, and a bare `--name` read as a string or a number, abort with a
// usage message so typos in bench sweeps fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace logcc::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Declares an option (for --help and unknown-option checking) and returns
  /// its value or the default.
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help = "");
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help = "");
  double get_double(const std::string& name, double def,
                    const std::string& help = "");
  bool get_flag(const std::string& name, const std::string& help = "");

  /// Call after all get_* declarations: exits(2) on unknown options and on
  /// valueless ones read by get_string/get_int/get_double (which returned
  /// their default), prints help and exits(0) if --help was passed.
  void finish();

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  struct Decl {
    std::string help;
    std::string def;
  };
  /// The value given for `name`, or null when it is absent or bare (a bare
  /// one is recorded in missing_value_ for finish()).
  const std::string* value_of(const std::string& name);

  std::string program_;
  std::map<std::string, std::optional<std::string>> values_;  // none: bare
  std::vector<std::string> missing_value_;
  std::map<std::string, Decl> declared_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace logcc::util
