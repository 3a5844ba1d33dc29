#include "core/module_graph.h"

#include <cassert>

namespace adtc {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTriggerFired: return "trigger_fired";
    case EventKind::kSafetyViolation: return "safety_violation";
    case EventKind::kRuleActivated: return "rule_activated";
    case EventKind::kLogNote: return "log_note";
    case EventKind::kAnalysisSoundness: return "analysis_soundness";
    case EventKind::kPlanSoundness: return "plan_soundness";
    case EventKind::kCounterSample: return "counter_sample";
    case EventKind::kAttackDetected: return "attack_detected";
    case EventKind::kAttackCleared: return "attack_cleared";
    case EventKind::kAutoDeploy: return "auto_deploy";
    case EventKind::kAutoWithdraw: return "auto_withdraw";
    case EventKind::kCount_: break;
  }
  return "?";
}

int ModuleGraph::AddModule(std::unique_ptr<Module> module) {
  assert(module != nullptr);
  Entry entry;
  entry.edges.resize(static_cast<std::size_t>(module->port_count()));
  entry.module = std::move(module);
  modules_.push_back(std::move(entry));
  validated_ = false;
  return static_cast<int>(modules_.size()) - 1;
}

Status ModuleGraph::SetEntry(int module_id) {
  if (module_id < 0 || module_id >= static_cast<int>(modules_.size())) {
    return InvalidArgument("entry module id out of range");
  }
  entry_ = module_id;
  validated_ = false;
  return Status::Ok();
}

Status ModuleGraph::Wire(int from, int port, int to) {
  if (from < 0 || from >= static_cast<int>(modules_.size()) || to < 0 ||
      to >= static_cast<int>(modules_.size())) {
    return InvalidArgument("module id out of range");
  }
  auto& edges = modules_[from].edges;
  if (port < 0 || port >= static_cast<int>(edges.size())) {
    return InvalidArgument("port out of range for module " +
                           std::string(modules_[from].module->type_name()));
  }
  edges[port] = Edge{false, Terminal::kAccept, to, true};
  validated_ = false;
  return Status::Ok();
}

Status ModuleGraph::WireTerminal(int from, int port, Terminal terminal) {
  if (from < 0 || from >= static_cast<int>(modules_.size())) {
    return InvalidArgument("module id out of range");
  }
  auto& edges = modules_[from].edges;
  if (port < 0 || port >= static_cast<int>(edges.size())) {
    return InvalidArgument("port out of range");
  }
  edges[port] = Edge{true, terminal, -1, true};
  validated_ = false;
  return Status::Ok();
}

Status ModuleGraph::Validate() {
  if (modules_.empty()) return InvalidArgument("empty module graph");
  if (entry_ < 0) return InvalidArgument("no entry module set");
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    for (std::size_t p = 0; p < modules_[i].edges.size(); ++p) {
      if (!modules_[i].edges[p].wired) {
        return InvalidArgument(
            "unwired port " + std::to_string(p) + " on module " +
            std::string(modules_[i].module->type_name()));
      }
    }
  }
  // Cycle detection: iterative DFS with colouring.
  enum class Colour : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<Colour> colour(modules_.size(), Colour::kWhite);
  std::vector<std::pair<int, std::size_t>> stack;  // (module, next edge)
  stack.emplace_back(entry_, 0);
  colour[entry_] = Colour::kGrey;
  while (!stack.empty()) {
    auto& [at, edge_index] = stack.back();
    if (edge_index >= modules_[at].edges.size()) {
      colour[at] = Colour::kBlack;
      stack.pop_back();
      continue;
    }
    const Edge& edge = modules_[at].edges[edge_index++];
    if (edge.is_terminal) continue;
    if (colour[edge.next] == Colour::kGrey) {
      return InvalidArgument("module graph contains a cycle through " +
                             std::string(modules_[edge.next].module
                                             ->type_name()));
    }
    if (colour[edge.next] == Colour::kWhite) {
      colour[edge.next] = Colour::kGrey;
      stack.emplace_back(edge.next, 0);
    }
  }
  validated_ = true;
  return Status::Ok();
}

Verdict ModuleGraph::Execute(Packet& packet, const DeviceContext& ctx) {
  assert(validated_ && "Validate() must pass before Execute()");
  packets_processed_++;
  last_drop_reason_ = DatapathDropReason::kNone;
  int at = entry_;
  // Acyclic: at most module_count() steps.
  for (std::size_t step = 0; step <= modules_.size(); ++step) {
    Entry& entry = modules_[at];
    int port = entry.module->OnPacket(packet, ctx);
    if (port < 0 || port >= static_cast<int>(entry.edges.size())) {
      port = 0;  // defensive: treat a bogus port as the default
    }
    const Edge& edge = entry.edges[port];
    if (edge.is_terminal) {
      if (edge.terminal == Terminal::kDrop) {
        packets_dropped_++;
        // `entry` is the module whose port fed the drop terminal, so its
        // declared family is the drop's attribution.
        last_drop_reason_ = entry.module->drop_reason();
        return Verdict::kDrop;
      }
      return Verdict::kForward;
    }
    at = edge.next;
  }
  assert(false && "validated graph exceeded step bound");
  return Verdict::kForward;
}

std::uint32_t ModuleGraph::TotalDeclaredOverhead() const {
  std::uint32_t total = 0;
  for (const auto& entry : modules_) {
    total += entry.module->declared_overhead_bytes();
  }
  return total;
}

ModuleGraph ModuleGraph::Single(std::unique_ptr<Module> module) {
  ModuleGraph graph;
  const int id = graph.AddModule(std::move(module));
  (void)graph.SetEntry(id);
  (void)graph.WireTerminal(id, kPortDefault, Terminal::kAccept);
  if (graph.module(id)->port_count() > 1) {
    for (int p = 1; p < graph.module(id)->port_count(); ++p) {
      (void)graph.WireTerminal(id, p, Terminal::kDrop);
    }
  }
  (void)graph.Validate();
  return graph;
}

ModuleGraph ModuleGraph::Chain(
    std::vector<std::unique_ptr<Module>> modules) {
  ModuleGraph graph;
  std::vector<int> ids;
  ids.reserve(modules.size());
  for (auto& module : modules) {
    ids.push_back(graph.AddModule(std::move(module)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    if (i + 1 < ids.size()) {
      (void)graph.Wire(id, kPortDefault, ids[i + 1]);
    } else {
      (void)graph.WireTerminal(id, kPortDefault, Terminal::kAccept);
    }
    for (int p = 1; p < graph.module(id)->port_count(); ++p) {
      (void)graph.WireTerminal(id, p, Terminal::kDrop);
    }
  }
  if (!ids.empty()) (void)graph.SetEntry(ids.front());
  (void)graph.Validate();
  return graph;
}

}  // namespace adtc
