// Directed-graph composition of device modules (Click/Chameleon style,
// Sec. 5.2). Each module's output ports are wired either to another
// module or to a terminal verdict; Validate() checks the graph is
// complete and acyclic before it may process traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/component.h"

namespace adtc {

class ModuleGraph {
 public:
  enum class Terminal : std::uint8_t { kAccept, kDrop };

  ModuleGraph() = default;
  ModuleGraph(ModuleGraph&&) = default;
  ModuleGraph& operator=(ModuleGraph&&) = default;

  /// Adds a module; returns its graph-local id.
  int AddModule(std::unique_ptr<Module> module);

  /// Sets where packets enter the graph.
  Status SetEntry(int module_id);

  /// Wires `from`'s output `port` to module `to`.
  Status Wire(int from, int port, int to);
  /// Wires `from`'s output `port` to a terminal verdict.
  Status WireTerminal(int from, int port, Terminal terminal);

  /// Checks: an entry exists, every port of every module is wired, and
  /// the module graph is acyclic. Must pass before Execute().
  Status Validate();
  bool validated() const { return validated_; }

  /// Runs the packet through the graph. Requires validated().
  Verdict Execute(Packet& packet, const DeviceContext& ctx);

  std::size_t module_count() const { return modules_.size(); }
  Module* module(int id) { return modules_[id].module.get(); }
  const Module* module(int id) const { return modules_[id].module.get(); }

  /// Read-only structural inspection, used by the admission verifier to
  /// snapshot the wiring into an analysis::GraphView.
  struct PortLink {
    bool wired = false;
    bool is_terminal = false;
    Terminal terminal = Terminal::kAccept;
    int next = -1;
  };
  int entry() const { return entry_; }
  std::size_t port_link_count(int id) const {
    return modules_[static_cast<std::size_t>(id)].edges.size();
  }
  PortLink port_link(int id, int port) const {
    const Edge& edge =
        modules_[static_cast<std::size_t>(id)].edges[static_cast<std::size_t>(port)];
    return PortLink{edge.wired, edge.is_terminal, edge.terminal, edge.next};
  }

  /// Looks up the first module of dynamic type M (nullptr if none) — used
  /// by services to reach their observation modules after deployment.
  template <typename M>
  M* FindModule() {
    for (auto& entry : modules_) {
      if (auto* typed = dynamic_cast<M*>(entry.module.get())) return typed;
    }
    return nullptr;
  }

  /// Sum of declared per-packet overhead bytes over all modules (the
  /// quantity the safety validator caps).
  std::uint32_t TotalDeclaredOverhead() const;

  std::uint64_t packets_processed() const { return packets_processed_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

  /// Taxonomy attribution of the most recent Execute(): the drop_reason()
  /// of the module that routed the packet to the drop terminal, or kNone
  /// when the packet was accepted. Valid until the next Execute().
  DatapathDropReason last_drop_reason() const { return last_drop_reason_; }

  /// Convenience: single-module graph `module -> accept`, with port 1
  /// (if any) wired to drop.
  static ModuleGraph Single(std::unique_ptr<Module> module);
  /// Convenience: linear chain; every module's port 0 goes to the next
  /// (last -> accept) and port 1 (if present) goes to drop.
  static ModuleGraph Chain(std::vector<std::unique_ptr<Module>> modules);

 private:
  struct Edge {
    bool is_terminal = false;
    Terminal terminal = Terminal::kAccept;
    int next = -1;
    bool wired = false;
  };
  struct Entry {
    std::unique_ptr<Module> module;
    std::vector<Edge> edges;  // indexed by port
  };

  std::vector<Entry> modules_;
  int entry_ = -1;
  bool validated_ = false;
  std::uint64_t packets_processed_ = 0;
  std::uint64_t packets_dropped_ = 0;
  DatapathDropReason last_drop_reason_ = DatapathDropReason::kNone;
};

}  // namespace adtc
