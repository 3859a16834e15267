#pragma once
/// \file cli.hpp
/// \brief Minimal command-line option parsing for `rdse` and the example and
/// bench binaries (`--key=value`, `--key value`, `--flag`), and the `main`
/// wrapper of the example and bench binaries. Options come from the
/// command line only: no environment variable changes what runs.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rdse {

class Options {
 public:
  /// Parse argv; unrecognized positional arguments are kept in order.
  /// Accepts "--key=value", "--key value" and boolean "--flag". Options
  /// named in `bool_flags` never consume the following token, so
  /// "--quiet path" keeps "path" positional instead of treating it as the
  /// flag's value. A non-boolean "--key" with no following value token
  /// (end of argv, or another "--option" next) throws Error — a forgotten
  /// value must fail loudly instead of misparsing as a flag.
  static Options parse(int argc, const char* const* argv,
                       std::span<const std::string_view> bool_flags);
  static Options parse(int argc, const char* const* argv) {
    return parse(argc, argv, {});
  }

  /// The value of --name, or nothing when it was not given.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Numeric getters parse the whole token ("10abc" and "1.5x" are errors,
  /// not 10 and 1.5) and throw Error on any malformed value.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const;
  /// get_int for a value that must lie in [lo, hi], the one way to read a
  /// flag stored in a narrower or unsigned type: a value outside throws
  /// Error naming the flag and its range ("option --threads: need an
  /// integer in [0, 4294967295], got -1") instead of being narrowed.
  [[nodiscard]] std::int64_t get_int_in(const std::string& name,
                                        std::int64_t def, std::int64_t lo,
                                        std::int64_t hi) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string def) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Strict front-ends (the `rdse` binary): throw Error naming the first
  /// parsed option that is not in `allowed`. The permissive bench/example
  /// binaries simply never call this.
  void require_known(std::span<const std::string_view> allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Every example and bench `main` forwards here, so a bad flag (or any
/// other failure) is reported the way `rdse` reports it: one
/// "<binary>: <message>" line on stderr and exit status 1, never an
/// uncaught-exception abort.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace rdse
