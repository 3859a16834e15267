#include "util/cli.hpp"

#include <charconv>
#include <exception>
#include <iostream>
#include <string_view>

#include "util/assert.hpp"

namespace rdse {

Options Options::parse(int argc, const char* const* argv,
                       std::span<const std::string_view> bool_flags) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    bool is_bool = false;
    for (const std::string_view flag : bool_flags) {
      if (arg == flag) {
        is_bool = true;
        break;
      }
    }
    if (is_bool) {
      opts.values_[arg] = "1";
      continue;
    }
    // "--key value": a non-boolean option must be followed by a value
    // token. A trailing "--key" or "--key --other" is a forgotten value
    // ("rdse sweep --model --dry-run"), not an implicit flag — treating it
    // as one silently changes what runs.
    if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
      throw Error("option --" + arg + " requires a value");
    }
    opts.values_[arg] = argv[++i];
  }
  return opts;
}

void Options::require_known(std::span<const std::string_view> allowed) const {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw Error("unknown option --" + name);
    }
  }
}

std::optional<std::string> Options::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t def) const {
  const auto v = get(name);
  if (!v) return def;
  // Whole-token parse: std::stoll would accept "10abc" as 10 and silently
  // run with a truncated value. from_chars also rejects leading whitespace
  // and a leading '+', which is fine for option values.
  std::int64_t value = 0;
  const char* last = v->data() + v->size();
  const auto res = std::from_chars(v->data(), last, value);
  if (res.ec != std::errc() || res.ptr != last || v->empty()) {
    throw Error("option --" + name + ": expected integer, got '" + *v + "'");
  }
  return value;
}

std::int64_t Options::get_int_in(const std::string& name, std::int64_t def,
                                 std::int64_t lo, std::int64_t hi) const {
  const std::int64_t value = get_int(name, def);
  RDSE_REQUIRE(value >= lo && value <= hi,
               "option --" + name + ": need an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got " + std::to_string(value));
  return value;
}

double Options::get_double(const std::string& name, double def) const {
  const auto v = get(name);
  if (!v) return def;
  double value = 0.0;
  const char* last = v->data() + v->size();
  const auto res = std::from_chars(v->data(), last, value);
  if (res.ec != std::errc() || res.ptr != last || v->empty()) {
    throw Error("option --" + name + ": expected number, got '" + *v + "'");
  }
  return value;
}

std::string Options::get_string(const std::string& name,
                                std::string def) const {
  const auto v = get(name);
  return v ? *v : def;
}

bool Options::get_flag(const std::string& name) const {
  const auto v = get(name);
  if (!v) return false;
  return *v != "0" && *v != "false" && *v != "off" && !v->empty();
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  const std::string_view path = argc > 0 ? argv[0] : "rdse";
  const std::string_view name = path.substr(path.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {  // rdse::Error among them
    std::cerr << name << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace rdse
