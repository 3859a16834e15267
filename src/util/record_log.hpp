#pragma once
/// \file record_log.hpp
/// \brief The one on-disk format of every durable artifact: the serve
/// cache database (`rdse.cachedb.v2`), the serve work journal
/// (`rdse.journal.v2`) and exploration checkpoints (`rdse.checkpoint.v1`).
///
/// A *sealed record* wraps a JSON body B with its checksum:
///
///   {"checksum": fnv1a64_hex(B.dump()), "body": B}
///
/// A *record log* is the header line `{"format": F}`, then one compact
/// sealed record per line, in write order. Replay checks each line on its
/// own: a torn or corrupt line is skipped and counted, and the rest still
/// load. After a first line that is not the header, no line is trusted,
/// except that a file holding only a prefix of the header (a rewrite torn
/// inside its header line) replays as an empty log.
/// An append is write + fsync; after a failed write (and before appending
/// to a file that ends mid-line) a newline is written, so a partial line
/// never swallows the next record. A rewrite writes `path.tmp`, fsyncs it
/// and renames it over the file: a fault leaves the old file or the new
/// one (cut short by a torn rename), never a mix. Writes, fsyncs and
/// renames go through util/faultfs.
///
/// A *sealed document* is one sealed record as a whole, pretty-printed
/// file, its format in the same object, rejected loudly (Error) when any
/// check fails: `{"format": F, "checksum": "<16 hex>", "body": B}`.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rdse {

/// `body` sealed with its checksum.
[[nodiscard]] JsonValue seal(JsonValue body);

/// The body of a sealed record, or nullopt when `record` is not one or its
/// checksum does not match. Other members (a document's format) are
/// ignored.
[[nodiscard]] std::optional<JsonValue> unseal(JsonValue record);

/// What replay found in a record log.
struct RecordReplay {
  enum class Header : std::uint8_t { kAbsent, kOurs, kForeign };
  Header header = Header::kAbsent;  ///< kAbsent: no file, or an empty one
  std::vector<JsonValue> bodies;    ///< verified bodies, in file order
  std::uint64_t skipped = 0;  ///< lines that did not verify (all if foreign)
};

/// Replay the log at `path`. Never throws on file contents.
[[nodiscard]] RecordReplay replay_records(const std::string& path,
                                          std::string_view format);

/// The writing side of one record log. Not synchronized: its owner
/// serializes append and rewrite.
class RecordLog {
 public:
  /// Opens nothing: the first append opens the file, creating it with its
  /// header (atomically) when it is absent, empty or shorter than the
  /// header.
  RecordLog(std::string path, std::string_view format);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Durably append one sealed record. False on a storage fault.
  bool append(JsonValue body);

  /// Atomically replace the file with the header and `bodies`. False on a
  /// storage fault; either way later appends go to the file the path
  /// names afterwards.
  bool rewrite(std::vector<JsonValue> bodies);

 private:
  std::string path_;
  std::string header_;  ///< the header line, newline included
  int fd_ = -1;         ///< append descriptor, -1 until the first append
};

/// Atomically write `body` as a sealed document. False on any storage
/// fault; never throws on I/O errors.
[[nodiscard]] bool write_sealed_document(const std::string& path,
                                         std::string_view format,
                                         const JsonValue& body);

/// The body of the sealed document at `path`. Throws Error when the file
/// is missing, not JSON (a torn write), of another format, or fails its
/// checksum.
[[nodiscard]] JsonValue read_sealed_document(const std::string& path,
                                             std::string_view format);

}  // namespace rdse
