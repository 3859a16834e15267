#include "sched/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <limits>
#include <map>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace rdse {
namespace {

/// Gantt row order: resources by id; on an RC its contexts by number and
/// then its reconfiguration lane; the bus after every resource. (Sorting
/// the lane names themselves would put "fpga0/C10" before "fpga0/C2".)
struct LaneKey {
  ResourceId resource = kInvalidResource;  ///< the bus keeps the default
  std::int32_t row = 0;                    ///< context index on an RC
  auto operator<=>(const LaneKey&) const = default;
};
constexpr std::int32_t kReconfRow = std::numeric_limits<std::int32_t>::max();
using LaneKeys = std::map<std::string, LaneKey>;

/// The lane a task's slot renders in; records the lane's sort key.
std::string lane_of(const Architecture& arch, const Solution& sol, TaskId t,
                    LaneKeys& keys) {
  const Placement& p = sol.placement(t);
  const Resource& res = arch.resource(p.resource);
  if (res.kind() == ResourceKind::kReconfigurable) {
    std::string lane = res.name() + "/C" + std::to_string(p.context + 1);
    keys.emplace(lane, LaneKey{p.resource, p.context});
    return lane;
  }
  keys.emplace(res.name(), LaneKey{p.resource, 0});
  return res.name();
}

}  // namespace

Timeline build_timeline(const TaskGraph& tg, const Architecture& arch,
                        const Solution& sol) {
  const Evaluator ev(tg, arch);
  const auto detail = ev.evaluate_detailed(sol);
  RDSE_REQUIRE(detail.has_value(),
               "build_timeline: solution is infeasible (cyclic G')");
  const SearchGraph& sg = detail->search_graph;
  const std::size_t n = tg.task_count();

  // ---- extended graph: transfers become first-class nodes ---------------
  Digraph ext = sg.graph;  // copy; transfer nodes appended
  std::vector<TimeNs> node_w(sg.node_weight.begin(), sg.node_weight.end());
  std::vector<TimeNs> release(sg.release.begin(), sg.release.end());
  std::vector<TimeNs> edge_w(sg.graph.edge_weights().begin(),
                             sg.graph.edge_weights().end());

  struct Transfer {
    EdgeId comm = kInvalidEdge;
    NodeId node = kInvalidNode;
    TimeNs ready = 0;  // producer finish in the longest-path schedule
  };
  std::vector<Transfer> transfers;
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    if (sg.graph.edge_weight(e) == 0) continue;  // same-placement: free
    Transfer tr;
    tr.comm = e;
    tr.ready = detail->lp.finish[tg.comm(e).src];
    transfers.push_back(tr);
  }
  // Deterministic bus order: by longest-path ready time, then edge id —
  // "a total order ... consistent with the task execution ordering".
  std::sort(transfers.begin(), transfers.end(),
            [](const Transfer& a, const Transfer& b) {
              return a.ready != b.ready ? a.ready < b.ready : a.comm < b.comm;
            });
  for (Transfer& tr : transfers) {
    tr.node = ext.add_node();
    node_w.push_back(edge_w[tr.comm]);  // transfer duration
    release.push_back(0);
    const CommEdge& c = tg.comm(tr.comm);
    auto wire = [&](NodeId from, NodeId to) {
      const EdgeId id = ext.add_edge(from, to);
      if (id >= edge_w.size()) edge_w.resize(id + 1, 0);
      edge_w[id] = 0;
    };
    wire(c.src, tr.node);
    wire(tr.node, c.dst);
    edge_w[tr.comm] = 0;  // the original edge no longer carries the latency
  }
  for (std::size_t i = 1; i < transfers.size(); ++i) {
    const EdgeId id = ext.add_edge(transfers[i - 1].node, transfers[i].node);
    if (id >= edge_w.size()) edge_w.resize(id + 1, 0);
    edge_w[id] = 0;
  }

  const WeightedDag dag{&ext, node_w, edge_w, release};
  const LongestPathResult lp = longest_path(dag);

  // ---- slots -------------------------------------------------------------
  Timeline tl;
  tl.makespan = lp.makespan;
  LaneKeys lane_keys{{"bus", LaneKey{}}};
  for (TaskId t = 0; t < n; ++t) {
    tl.slots.push_back(TimelineSlot{lane_of(arch, sol, t, lane_keys),
                                    tg.task(t).name, SlotKind::kTask,
                                    lp.start[t], lp.finish[t]});
  }
  for (const Transfer& tr : transfers) {
    const CommEdge& c = tg.comm(tr.comm);
    tl.slots.push_back(TimelineSlot{
        "bus", tg.task(c.src).name + "->" + tg.task(c.dst).name,
        SlotKind::kTransfer, lp.start[tr.node], lp.finish[tr.node]});
  }
  // Reconfiguration slots per RC context.
  for (ResourceId rc : arch.reconfigurable_ids()) {
    const std::size_t n_ctx = sol.context_count(rc);
    if (n_ctx == 0) continue;
    const auto& dev = arch.reconfigurable(rc);
    // Initial load: finishes exactly at the first context's release time.
    const TimeNs first = dev.reconfiguration_time(sol.context_clbs(rc, 0));
    lane_keys.emplace(dev.name() + "/reconf", LaneKey{rc, kReconfRow});
    tl.slots.push_back(TimelineSlot{dev.name() + "/reconf", "load C1",
                                    SlotKind::kReconfig, 0, first});
    for (std::size_t c = 0; c + 1 < n_ctx; ++c) {
      const ContextBoundary b = context_boundary(tg, sol, rc, c);
      TimeNs begin = 0;
      for (TaskId t : b.terminals) {
        begin = std::max(begin, lp.finish[t]);
      }
      const TimeNs reconf =
          dev.reconfiguration_time(sol.context_clbs(rc, c + 1));
      tl.slots.push_back(TimelineSlot{
          dev.name() + "/reconf", "load C" + std::to_string(c + 2),
          SlotKind::kReconfig, begin, begin + reconf});
    }
  }
  std::sort(tl.slots.begin(), tl.slots.end(),
            [&lane_keys](const TimelineSlot& a, const TimelineSlot& b) {
              const LaneKey& ka = lane_keys.at(a.lane);
              const LaneKey& kb = lane_keys.at(b.lane);
              if (ka != kb) return ka < kb;
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.start != b.start) return a.start < b.start;
              return a.label < b.label;
            });
  return tl;
}

std::string Timeline::to_ascii(int width) const {
  RDSE_REQUIRE(width >= 20, "Timeline::to_ascii: width too small");
  if (slots.empty() || makespan <= 0) {
    return "(empty timeline)\n";
  }
  std::vector<std::string> lanes;
  for (const auto& s : slots) {
    if (std::find(lanes.begin(), lanes.end(), s.lane) == lanes.end()) {
      lanes.push_back(s.lane);
    }
  }
  std::size_t name_w = 4;
  for (const auto& l : lanes) name_w = std::max(name_w, l.size());

  std::ostringstream os;
  os << std::string(name_w, ' ') << " 0" << std::string(width - 8, ' ')
     << format_double(to_ms(makespan), 2) << " ms\n";
  for (const auto& lane : lanes) {
    std::string row(static_cast<std::size_t>(width), '.');
    for (const auto& s : slots) {
      if (s.lane != lane) continue;
      auto col = [&](TimeNs t) {
        return std::clamp<long>(
            std::lround(static_cast<double>(t) /
                        static_cast<double>(makespan) * (width - 1)),
            0, width - 1);
      };
      const long c0 = col(s.start);
      const long c1 = std::max(col(s.end), c0);
      char glyph = '#';
      if (s.kind == SlotKind::kReconfig) glyph = 'r';
      if (s.kind == SlotKind::kTransfer) glyph = '=';
      for (long c = c0; c <= c1; ++c) {
        row[static_cast<std::size_t>(c)] = glyph;
      }
      // Mark the start with the first letter of the label when it fits.
      if (!s.label.empty() && s.kind == SlotKind::kTask) {
        row[static_cast<std::size_t>(c0)] =
            static_cast<char>(std::toupper(s.label[0]));
      }
    }
    os << lane << std::string(name_w - lane.size(), ' ') << ' ' << row
       << '\n';
  }
  os << "  ('#' task, 'r' reconfiguration, '=' bus transfer; letters mark "
        "task starts)\n";
  return os.str();
}

}  // namespace rdse
