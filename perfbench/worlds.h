// The benchmark's three seeded worlds, built through the public API only
// (Network, topology generators, BuildAttackScenario, Tcsp, IspNms).
// Why each exists and which layers it loads: perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attack/scenario.h"
#include "core/nms.h"
#include "core/ownership.h"
#include "core/tcsp.h"
#include "net/topo_gen.h"
#include "tracer.h"

namespace adtc::perfbench {

/// One world: topology, management plane and hosts. Members are declared
/// in dependency order so they are destroyed network-last.
struct World {
  World(std::uint64_t seed, std::size_t shards);

  Network net;
  TopologyInfo topo;
  NumberAuthority authority;
  Tcsp tcsp;
  std::vector<std::unique_ptr<IspNms>> nmses;
  Ctrl ctrl;

  /// Simulated time the workload runs for once built.
  SimDuration duration = 0;
  /// Clients whose success ratio is the world's goodput.
  std::vector<Client*> goodput_clients;
  /// Correctness failures found while building or running.
  std::vector<std::string> failures;

  /// Enrols one ISP NMS per AS (none manages a device yet).
  void EnrolIsps();
  /// Puts a device on `node` under that AS's own NMS.
  void Adopt(NodeId node) { nmses[node]->ManageNode(node); }
  std::size_t ManagedDevices() const;
  /// Σ device applied_install_count() + Σ NMS applied_instruction_count().
  std::uint64_t DedupRecords();
  /// Success ratio over goodput_clients.
  double Goodput() const;
};

struct Workload {
  std::string_view name;
  std::size_t shards;
  /// Builds everything after the Network exists: topology, routing,
  /// hosts, enrolment, registration and the initial deploy.
  void (*build)(World& world);
  /// Checks particular to the workload, after the run.
  void (*check)(World& world);
};

/// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);
std::string WorkloadNames();

}  // namespace adtc::perfbench
