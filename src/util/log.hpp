#pragma once
/// \file log.hpp
/// \brief Leveled diagnostic logging to stderr.
///
/// The library itself is silent at default level; examples and benches raise
/// the level for progress reporting. Safe to call from many threads (serve
/// logs from its connection and worker threads): each message is written by
/// a single `fprintf`, which stdio serializes per call, so concurrent log
/// lines never interleave; the level is a `std::atomic`.

#include <sstream>
#include <string>

namespace rdse {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Global threshold; messages above it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit one message at the given level (newline appended).
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_error(Args&&... args) {
  log_message(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_debug(Args&&... args) {
  log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

}  // namespace rdse
