#include "common.hpp"

#include <fstream>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

volatile double g_kernel_sink = 0.0;

struct KernelNode {
  KernelNode() = default;
  virtual ~KernelNode() = default;
  KernelNode(const KernelNode&) = delete;
  KernelNode& operator=(const KernelNode&) = delete;
  KernelNode(KernelNode&&) = delete;
  KernelNode& operator=(KernelNode&&) = delete;
  [[nodiscard]] virtual double eval(double x) const = 0;
  std::vector<const KernelNode*> succ;
  double w = 0.0;
};
struct AddNode final : KernelNode {
  [[nodiscard]] double eval(double x) const override { return x + w; }
};
struct HalfNode final : KernelNode {
  [[nodiscard]] double eval(double x) const override {
    return x * 0.5 + w * 2.0;
  }
};
struct MaxNode final : KernelNode {
  [[nodiscard]] double eval(double x) const override {
    return std::max(x, w);
  }
};

/// Longest-path relaxation over 300 heap-allocated nodes reached through
/// virtual calls, each successor located by a linear pointer scan, with one
/// node weight changed per pass.
double graph_kernel() {
  constexpr int kNodes = 300;
  std::uint64_t s = 5;
  std::vector<std::unique_ptr<KernelNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    s = mix64(s);
    if (s % 3 == 0) {
      nodes.push_back(std::make_unique<AddNode>());
    } else if (s % 3 == 1) {
      nodes.push_back(std::make_unique<HalfNode>());
    } else {
      nodes.push_back(std::make_unique<MaxNode>());
    }
    nodes.back()->w = static_cast<double>(s >> 54);
  }
  for (int i = 0; i < kNodes; ++i) {
    for (int k = 0; k < 3; ++k) {
      s = mix64(s);
      const int j = i + 1 + static_cast<int>(s % 15);
      if (j < kNodes) nodes[i]->succ.push_back(nodes[j].get());
    }
  }
  std::vector<double> dist(kNodes);
  double acc = 0.0;
  for (int pass = 0; pass < 300; ++pass) {
    std::fill(dist.begin(), dist.end(), 0.0);
    s = mix64(s);
    nodes[s % kNodes]->w += 1.0;
    for (int i = 0; i < kNodes; ++i) {
      const double v = nodes[i]->eval(dist[i]);
      for (const KernelNode* to : nodes[i]->succ) {
        const auto j = std::find_if(nodes.begin() + i, nodes.end(),
                                    [to](const auto& n) {
                                      return n.get() == to;
                                    }) -
                       nodes.begin();
        if (v > dist[j]) dist[j] = v;
      }
    }
    acc += dist.back();
  }
  return acc;
}

/// Builds 2000 short names and matches each against a regular expression:
/// many small allocations through a large instruction footprint.
double text_kernel() {
  static const std::regex pattern("task_([0-9]+)_([0-9])");
  std::uint64_t s = 9;
  double acc = 0.0;
  for (int i = 0; i < 2'000; ++i) {
    s = mix64(s);
    const std::string name = "task_" + std::to_string(s % 100'000) + "_" +
                             std::to_string(s & 7);
    std::smatch m;
    if (std::regex_match(name, m, pattern)) {
      acc += static_cast<double>(m[1].length());
    }
  }
  return acc;
}

/// The host-speed kernel, about 2.4 ms on the reference host. It is shaped
/// like the explorer's hot path rather than like a tight loop, because the
/// host's slow phases hurt the two unequally. Over a 240-second trace of
/// back-to-back motion runs, run time divided by this kernel's time kept a
/// 2.3% IQR across 5-second windows (set-up time: 4.0%). Divided by a sort,
/// hash-map and pointer-chase kernel it kept 8.2% (set-up time: 13.5%); raw,
/// 26%.
void speed_kernel() { g_kernel_sink = graph_kernel() + text_kernel(); }

}  // namespace

void HostSpeed::burst(int reps) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t = now_ns();
    speed_kernel();
    times.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }
  kernel_ms_.insert(kernel_ms_.end(), times.begin(), times.end());
  last_ns_ = now_ns();
  const double ms = median(times);
  const double around = last_ms_ > 0.0 ? (last_ms_ + ms) / 2.0 : ms;
  factors_.resize(opened_, kNominalMs / around);
  last_ms_ = ms;
}

void HostSpeed::maybe_burst() {
  if (now_ns() - last_ns_ >= 100'000'000) burst(3);
}

double HostSpeed::overall_speed() const {
  return kernel_ms_.empty() ? 1.0 : kNominalMs / median(kernel_ms_);
}

void Tracer::write(const std::string& path) const {
  if (!enabled_) return;
  rdse::JsonValue spans = rdse::JsonValue::array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      rdse::JsonValue row = rdse::JsonValue::object();
      row.set("name", s.name);
      row.set("start_ns", s.start_ns);
      row.set("end_ns", s.end_ns);
      row.set("parent", s.parent);
      row.set("request", s.request);
      spans.push_back(std::move(row));
    }
  }
  rdse::JsonValue doc = rdse::JsonValue::object();
  doc.set("spans", std::move(spans));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

void Report::write(const std::string& path) const {
  rdse::JsonValue metrics = rdse::JsonValue::object();
  for (const auto& [name, m] : metrics_) {
    rdse::JsonValue row = rdse::JsonValue::object();
    row.set("value", m.value);
    row.set("unit", m.unit);
    row.set("samples", m.samples);
    metrics.set(name, std::move(row));
  }
  rdse::JsonValue reasons = rdse::JsonValue::array();
  for (const std::string& r : reasons_) reasons.push_back(r);
  rdse::JsonValue doc = rdse::JsonValue::object();
  doc.set("attempted", attempted_);
  doc.set("failed", failed_);
  doc.set("failures", std::move(reasons));
  doc.set("metrics", std::move(metrics));
  doc.set("notes", notes_);
  std::ofstream out(path);
  out << doc.dump(2) << '\n';
  if (!out) throw std::runtime_error("cannot write result file " + path);
}

}  // namespace perfbench
