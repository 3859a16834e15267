#pragma once
/// \file journal.hpp
/// \brief Write-ahead work journal for the exploration service
/// (`rdse serve --journal PATH`).
///
/// Format `rdse.journal.v2`: a record log (util/record_log.hpp) with one
/// record `{"event": E, "key": K}` per work-request state transition. `key`
/// is the request's canonical form (serve/protocol.hpp), enough to re-run
/// the work. Events: accepted (queued), started (a worker picked it up),
/// completed (answered ok), cancelled (the client was told it failed).
///
/// On startup the journal replays itself: keys accepted (or started) but
/// never completed/cancelled are the work a crash swallowed, surfaced
/// through pending() for the service to re-enqueue. A key's last event
/// decides whether it is open, and the journal keeps that state in memory
/// as it appends. Compaction rewrites the file as one `accepted` record
/// per open key: at startup when replay skipped a line or found a
/// completed or cancelled record, when the owner asks (drain, SIGHUP), and
/// when an append leaves more than 2 x open keys + kCacheDbSlack records.
/// A storage fault degrades to "entry not journaled, run still correct".

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_log.hpp"

namespace rdse::serve {

inline constexpr const char* kJournalFormat = "rdse.journal.v2";

class WorkJournal {
 public:
  struct Counters {
    std::uint64_t replayed = 0;     ///< pending entries found at startup
    std::uint64_t skipped = 0;      ///< corrupt/torn lines skipped at startup
    std::uint64_t compactions = 0;  ///< successful rewrites
    std::uint64_t appends = 0;      ///< entries durably appended
    /// Write/fsync/rename faults swallowed, by appends and rewrites.
    std::uint64_t append_failures = 0;
  };

  /// Open (creating if absent), replay and compact the journal at `path`.
  /// Throws Error when the file exists but carries a foreign format
  /// header — a journal that is not ours must not be silently rewritten.
  explicit WorkJournal(std::string path);

  WorkJournal(const WorkJournal&) = delete;
  WorkJournal& operator=(const WorkJournal&) = delete;

  /// Durably append one state transition, then compact if the file has
  /// outgrown the size rule. Returns false when the append hit a storage
  /// fault, which is counted; the key's open state follows the event
  /// either way, so the next compaction records it.
  bool append(std::string_view event, const std::string& key);

  /// Rewrite the file as one `accepted` record per open key. A failed
  /// rewrite is counted, and the open keys are appended again, so the file
  /// left behind (the old one, or one a torn rename cut short) still
  /// replays every open key.
  void compact();

  /// Keys accepted-but-not-completed at startup, in the order they opened —
  /// the work to re-enqueue. Fixed after construction.
  [[nodiscard]] const std::vector<std::string>& pending() const {
    return pending_;
  }

  [[nodiscard]] Counters counters() const;

 private:
  void compact_locked();

  mutable std::mutex mutex_;
  RecordLog log_;
  std::vector<std::string> pending_;
  /// Keys whose last event left them open, in the order they opened.
  std::vector<std::string> open_;
  std::uint64_t records_ = 0;  ///< records the file holds
  Counters counters_;
};

}  // namespace rdse::serve
