#include "util/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/faultfs.hpp"
#include "util/hash.hpp"

namespace rdse {

namespace {

/// Write all of `data`, retrying real partial writes.
bool write_all_fd(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = faultfs::write(fd, data.data(), data.size());
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Replace `path` with `data` (temp, fsync, rename), then fsync the
/// directory (best effort, outside the fault plan) so the rename lasts.
bool write_file_atomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = write_all_fd(fd, data) && faultfs::fsync(fd) == 0;
  (void)::close(fd);
  if (!written || faultfs::rename_file(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return false;
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    (void)::close(dir_fd);
  }
  return true;
}

/// Adds the checksum and body members of a sealed record to `doc`.
void add_seal(JsonValue& doc, JsonValue body) {
  doc.set("checksum", fnv1a64_hex(body.dump()));
  doc.set("body", std::move(body));
}

/// `{"format": F}` followed by a newline.
std::string header_line(std::string_view format) {
  JsonValue doc = JsonValue::object();
  doc.set("format", std::string(format));
  return doc.dump() + '\n';
}

}  // namespace

JsonValue seal(JsonValue body) {
  JsonValue record = JsonValue::object();
  add_seal(record, std::move(body));
  return record;
}

std::optional<JsonValue> unseal(JsonValue record) {
  if (record.kind() != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* checksum = record.find("checksum");
  JsonValue* body = record.find("body");
  if (checksum == nullptr || body == nullptr ||
      checksum->kind() != JsonValue::Kind::kString ||
      checksum->as_string() != fnv1a64_hex(body->dump())) {
    return std::nullopt;
  }
  return std::move(*body);
}

RecordReplay replay_records(const std::string& path,
                            std::string_view format) {
  RecordReplay out;
  std::ifstream in(path);
  std::string line;
  if (!in.is_open() || !std::getline(in, line)) return out;
  const std::string header = header_line(format);
  const bool ours = line + '\n' == header;
  if (!ours && in.peek() == std::ifstream::traits_type::eof() &&
      header.starts_with(line)) {
    return out;  // a rewrite torn inside its header: no record to replay
  }
  out.header = ours ? RecordReplay::Header::kOurs
                    : RecordReplay::Header::kForeign;
  if (!ours) ++out.skipped;
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // a recovery newline
    std::optional<JsonValue> body;
    try {
      if (ours) body = unseal(JsonValue::parse(line));
    } catch (const std::exception&) {
      // torn or corrupt: counted below
    }
    if (body.has_value()) {
      out.bodies.push_back(std::move(*body));
    } else {
      ++out.skipped;
    }
  }
  return out;
}

RecordLog::RecordLog(std::string path, std::string_view format)
    : path_(std::move(path)), header_(header_line(format)) {}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool RecordLog::append(JsonValue body) {
  std::string data;
  if (fd_ < 0) {
    // A missing or empty file, or one a torn rewrite cut inside its header,
    // is first created with its header, atomically, so a failed append can
    // never leave a headerless log behind.
    struct stat st {};
    if ((::stat(path_.c_str(), &st) != 0 ||
         static_cast<std::size_t>(st.st_size) < header_.size()) &&
        !write_file_atomic(path_, header_)) {
      return false;
    }
    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) return false;
    char last = '\n';  // a torn tail is closed with a newline first
    if (::fstat(fd_, &st) == 0 && st.st_size > 0 &&
        ::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      data = "\n";
    }
  }
  data += seal(std::move(body)).dump() + '\n';
  if (!write_all_fd(fd_, data) || faultfs::fsync(fd_) != 0) {
    // Raw write: the recovery newline is outside the fault plan.
    (void)!::write(fd_, "\n", 1);
    return false;
  }
  return true;
}

bool RecordLog::rewrite(std::vector<JsonValue> bodies) {
  std::string data = header_;
  for (JsonValue& body : bodies) data += seal(std::move(body)).dump() + '\n';
  // Later appends reopen the path: the new file, the old one (a failed
  // rename) or a truncated one (a torn rename).
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  return write_file_atomic(path_, data);
}

bool write_sealed_document(const std::string& path, std::string_view format,
                           const JsonValue& body) {
  JsonValue doc = JsonValue::object();
  doc.set("format", std::string(format));
  add_seal(doc, body);
  std::string data = doc.dump(2);
  data += '\n';
  return write_file_atomic(path, data);
}

JsonValue read_sealed_document(const std::string& path,
                               std::string_view format) {
  const std::string what = std::string(format) + " '" + path + "'";
  std::ifstream in(path);
  if (!in.is_open()) throw Error("cannot open " + what);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  try {
    doc = JsonValue::parse(buffer.str());
  } catch (const std::exception& e) {
    throw Error(what + " is not valid JSON (truncated or corrupt): " +
                e.what());
  }
  const JsonValue* tag =
      doc.kind() == JsonValue::Kind::kObject ? doc.find("format") : nullptr;
  if (tag == nullptr || tag->kind() != JsonValue::Kind::kString ||
      tag->as_string() != format) {
    throw Error(what + " has a foreign or missing format tag");
  }
  std::optional<JsonValue> body = unseal(std::move(doc));
  if (!body.has_value()) {
    throw Error(what + " failed its checksum (corrupt or hand-edited)");
  }
  return std::move(*body);
}

}  // namespace rdse
