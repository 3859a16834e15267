#include "serve/journal.hpp"

#include <algorithm>
#include <utility>

#include "serve/persist.hpp"
#include "util/assert.hpp"

namespace rdse::serve {

namespace {

JsonValue entry_body(std::string_view event, const std::string& key) {
  JsonValue body = JsonValue::object();
  body.set("event", std::string(event));
  body.set("key", key);
  return body;
}

bool known_event(const std::string& event) {
  return event == "accepted" || event == "started" || event == "completed" ||
         event == "cancelled";
}

/// Whether `event` leaves its key open (its work not yet answered).
bool opens(std::string_view event) {
  return event == "accepted" || event == "started";
}

/// Apply one event to the open keys: the key's last event wins.
void track(std::vector<std::string>& open, const std::string& key,
           bool is_open) {
  const auto it = std::find(open.begin(), open.end(), key);
  if (is_open && it == open.end()) open.push_back(key);
  if (!is_open && it != open.end()) open.erase(it);
}

}  // namespace

WorkJournal::WorkJournal(std::string path) : log_(path, kJournalFormat) {
  // ---- replay ----
  const RecordReplay replay = replay_records(path, kJournalFormat);
  if (replay.header == RecordReplay::Header::kForeign) {
    throw Error("journal: '" + path + "' has a foreign format header (want " +
                std::string(kJournalFormat) + ")");
  }
  counters_.skipped = replay.skipped;
  bool closing = false;  // a completed/cancelled record the rewrite drops
  for (const JsonValue& body : replay.bodies) {
    const JsonValue* event = body.kind() == JsonValue::Kind::kObject
                                 ? body.find("event")
                                 : nullptr;
    const JsonValue* key = event != nullptr ? body.find("key") : nullptr;
    if (key == nullptr || event->kind() != JsonValue::Kind::kString ||
        key->kind() != JsonValue::Kind::kString ||
        !known_event(event->as_string())) {
      ++counters_.skipped;
      continue;
    }
    const bool is_open = opens(event->as_string());
    closing = closing || !is_open;
    track(open_, key->as_string(), is_open);
  }
  pending_ = open_;
  counters_.replayed = pending_.size();
  records_ = replay.bodies.size();

  // ---- compact ----
  // Only when the rewrite drops something: a skipped line or a closing
  // record.
  if (counters_.skipped > 0 || closing) compact_locked();
}

bool WorkJournal::append(std::string_view event, const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  track(open_, key, opens(event));
  if (!log_.append(entry_body(event, key))) {
    ++counters_.append_failures;
    return false;
  }
  ++counters_.appends;
  if (++records_ > 2 * open_.size() + kCacheDbSlack) compact_locked();
  return true;
}

void WorkJournal::compact() {
  const std::lock_guard<std::mutex> lock(mutex_);
  compact_locked();
}

void WorkJournal::compact_locked() {
  std::vector<JsonValue> bodies;
  bodies.reserve(open_.size());
  for (const std::string& key : open_) {
    bodies.push_back(entry_body("accepted", key));
  }
  if (log_.rewrite(std::move(bodies))) {
    ++counters_.compactions;
    records_ = open_.size();
    return;
  }
  ++counters_.append_failures;
  for (const std::string& key : open_) {
    if (log_.append(entry_body("accepted", key))) {
      ++counters_.appends;
      ++records_;
    } else {
      ++counters_.append_failures;
    }
  }
}

WorkJournal::Counters WorkJournal::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace rdse::serve
