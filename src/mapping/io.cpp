#include "mapping/io.hpp"

#include <charconv>
#include <map>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace rdse {
namespace {

std::map<std::string, TaskId> name_index(const TaskGraph& tg) {
  std::map<std::string, TaskId> index;
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    index[tg.task(t).name] = t;
  }
  return index;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw Error("solution_from_text: line " + std::to_string(line_no) + ": " +
              message);
}

}  // namespace

std::string solution_to_text(const TaskGraph& tg, const Solution& sol) {
  RDSE_REQUIRE(sol.task_count() == tg.task_count(),
               "solution_to_text: task count mismatch");
  std::ostringstream os;
  os << "rdse-solution 1\n";
  os << "tasks " << tg.task_count() << "\n";

  // Collect resources in deterministic id order.
  std::map<ResourceId, char> seen;  // just to order output by resource id
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    const Placement& p = sol.placement(t);
    RDSE_REQUIRE(p.assigned(), "solution_to_text: task '" + tg.task(t).name +
                                   "' is unassigned");
    seen.emplace(p.resource, 0);
  }
  for (const auto& [id, unused] : seen) {
    (void)unused;
    const auto order = sol.processor_order(id);
    if (!order.empty()) {
      os << "proc " << id;
      for (TaskId t : order) os << ' ' << tg.task(t).name;
      os << '\n';
      continue;
    }
    const std::size_t n_ctx = sol.context_count(id);
    if (n_ctx > 0) {
      for (std::size_t c = 0; c < n_ctx; ++c) {
        os << "context " << id << ' ' << c;
        for (TaskId t : sol.context_tasks(id, c)) {
          os << ' ' << tg.task(t).name << ':' << sol.placement(t).impl;
        }
        os << '\n';
      }
      continue;
    }
    const auto members = sol.asic_tasks(id);
    if (!members.empty()) {
      os << "asic " << id;
      for (TaskId t : members) {
        os << ' ' << tg.task(t).name << ':' << sol.placement(t).impl;
      }
      os << '\n';
    }
  }
  return os.str();
}

Solution solution_from_text(const TaskGraph& tg, const Architecture& arch,
                            const std::string& text) {
  const auto index = name_index(tg);
  Solution sol(tg.task_count());

  // A task a record assigns: known, and not assigned before.
  auto claim = [&index, &sol](const std::string& name, std::size_t line_no) {
    const auto it = index.find(name);
    if (it == index.end()) fail(line_no, "unknown task '" + name + "'");
    if (sol.placement(it->second).assigned()) {
      fail(line_no, "task '" + name + "' assigned twice");
    }
    return it->second;
  };
  // A `task:impl` token: a claimed task and one of its implementations.
  auto claim_impl = [&claim, &tg](const std::string& token,
                                  std::size_t line_no) {
    const auto colon = token.rfind(':');
    if (colon == std::string::npos || colon + 1 >= token.size()) {
      fail(line_no, "expected task:impl, got '" + token + "'");
    }
    const TaskId t = claim(token.substr(0, colon), line_no);
    std::uint32_t impl = 0;
    const char* last = token.data() + token.size();
    const auto res = std::from_chars(token.data() + colon + 1, last, impl);
    if (res.ec != std::errc() || res.ptr != last) {
      fail(line_no, "bad implementation index in '" + token + "'");
    }
    if (impl >= tg.task(t).hw.size()) {
      fail(line_no, "implementation index out of range for '" +
                        tg.task(t).name + "'");
    }
    return std::pair{t, impl};
  };
  // A record's resource: a live resource of the record's kind. The id sizes
  // the Solution's per-resource tables, so it is never taken on trust.
  auto live_resource = [&arch](std::istringstream& ls, ResourceKind kind,
                               std::size_t line_no) {
    ResourceId id = 0;
    if (!(ls >> id)) fail(line_no, "bad resource id");
    if (!arch.alive(id) || arch.resource(id).kind() != kind) {
      fail(line_no, "resource " + std::to_string(id) + " is not a live " +
                        to_string(kind));
    }
    return id;
  };

  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  // Contexts must arrive in index order per RC; track the next expected.
  std::map<ResourceId, std::size_t> next_context;

  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank line

    if (!header_seen) {
      if (keyword != "rdse-solution") fail(line_no, "missing header");
      int version = 0;
      if (!(ls >> version) || version != 1) {
        fail(line_no, "unsupported version");
      }
      header_seen = true;
      continue;
    }

    if (keyword == "tasks") {
      std::size_t n = 0;
      if (!(ls >> n)) fail(line_no, "bad task count");
      if (n != tg.task_count()) {
        fail(line_no, "task count " + std::to_string(n) +
                          " does not match the task graph (" +
                          std::to_string(tg.task_count()) + ")");
      }
      continue;
    }
    if (keyword == "proc") {
      const ResourceId id =
          live_resource(ls, ResourceKind::kProcessor, line_no);
      std::string name;
      while (ls >> name) {
        const TaskId t = claim(name, line_no);
        sol.insert_on_processor(t, id, sol.processor_order(id).size());
      }
      continue;
    }
    if (keyword == "context") {
      const ResourceId id =
          live_resource(ls, ResourceKind::kReconfigurable, line_no);
      std::size_t ctx = 0;
      if (!(ls >> ctx)) fail(line_no, "bad context header");
      auto& expected = next_context[id];
      if (ctx != expected) {
        fail(line_no, "contexts must be listed in order (expected " +
                          std::to_string(expected) + ")");
      }
      ++expected;
      const std::size_t spawned = sol.spawn_context_after(
          id, ctx == 0 ? Solution::kFront : ctx - 1);
      RDSE_ASSERT(spawned == ctx);
      std::string token;
      bool any = false;
      while (ls >> token) {
        const auto [t, impl] = claim_impl(token, line_no);
        sol.insert_in_context(t, id, ctx, impl, tg.task(t).hw.at(impl).clbs);
        any = true;
      }
      if (!any) fail(line_no, "empty context");
      continue;
    }
    if (keyword == "asic") {
      const ResourceId id = live_resource(ls, ResourceKind::kAsic, line_no);
      std::string token;
      while (ls >> token) {
        const auto [t, impl] = claim_impl(token, line_no);
        sol.insert_on_asic(t, id, impl);
      }
      continue;
    }
    fail(line_no, "unknown record '" + keyword + "'");
  }

  if (!header_seen) throw Error("solution_from_text: empty input");
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    if (!sol.placement(t).assigned()) {
      throw Error("solution_from_text: task '" + tg.task(t).name +
                  "' is not assigned by the file");
    }
  }
  return sol;
}

}  // namespace rdse
