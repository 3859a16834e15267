#include "serve/journal.hpp"

#include <unordered_map>
#include <utility>

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

}  // namespace

WorkJournal::WorkJournal(std::string path) : log_(path, kJournalFormat) {
  // ---- replay ----
  const RecordReplay replay = replay_records(path, kJournalFormat);
  if (replay.header == RecordReplay::Header::kForeign) {
    throw Error("journal: '" + path + "' has a foreign format header (want " +
                std::string(kJournalFormat) + ")");
  }
  counters_.skipped = replay.skipped;
  std::vector<std::string> order;  // keys in first-accepted order
  std::unordered_map<std::string, bool> open_state;  // key -> still pending
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
    const bool pending =
        event->as_string() == "accepted" || event->as_string() == "started";
    const auto [it, inserted] = open_state.emplace(key->as_string(), pending);
    if (inserted) {
      order.push_back(key->as_string());
    } else {
      it->second = pending;  // last transition wins
    }
  }
  for (const std::string& key : order) {
    if (open_state[key]) pending_.push_back(key);
  }
  counters_.replayed = pending_.size();
  if (replay.header == RecordReplay::Header::kAbsent) return;

  // ---- compact ----
  // Rewrite the file with only the still-pending entries, so completed
  // work does not accumulate. On a storage fault the old file is left
  // as-is — replay stays correct, just un-compacted — and appends continue
  // against it.
  std::vector<JsonValue> bodies;
  bodies.reserve(pending_.size());
  for (const std::string& key : pending_) {
    bodies.push_back(entry_body("accepted", key));
  }
  ++(log_.rewrite(std::move(bodies)) ? counters_.compactions
                                     : counters_.append_failures);
}

bool WorkJournal::append(std::string_view event, const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!log_.append(entry_body(event, key))) {
    ++counters_.append_failures;
    return false;
  }
  ++counters_.appends;
  return true;
}

WorkJournal::Counters WorkJournal::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace rdse::serve
