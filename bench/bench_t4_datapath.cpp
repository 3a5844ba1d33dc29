// T4 — Figs. 2 & 6 / Sec. 5.2: the adaptive-device datapath.
//
// "Traffic entering a router is redirected to a nearby adaptive device
//  only if it carries an IP address as source or destination, which the
//  adaptive device was setup for ... Most traffic will use the direct
//  path through the router."
//
// Microbenchmarks (google-benchmark): fast-path cost, redirect cost, cost
// vs installed rule-chain length, cost vs redirect-table size, and the
// two-stage-vs-merged-stage ablation. These are the per-packet quantities
// the scalability argument of Sec. 5.3 rests on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/adaptive_device.h"
#include "core/modules/match.h"
#include "core/modules/basic.h"
#include "net/prefix_trie.h"

namespace adtc {
namespace {

CertificateAuthority& Ca() {
  static CertificateAuthority ca("t4-key");
  return ca;
}

ModuleGraph RuleChain(int rules) {
  std::vector<std::unique_ptr<Module>> modules;
  for (int i = 0; i < rules; ++i) {
    MatchRule rule;
    rule.dst_port_range = {{static_cast<std::uint16_t>(10000 + i),
                            static_cast<std::uint16_t>(10000 + i)}};
    modules.push_back(std::make_unique<MatchModule>(rule));
  }
  if (modules.empty()) modules.push_back(std::make_unique<CounterModule>());
  return ModuleGraph::Chain(std::move(modules));
}

Packet MakePacket(NodeId src_node, NodeId dst_node) {
  Packet p;
  p.src = HostAddress(src_node, 1);
  p.dst = HostAddress(dst_node, 1);
  p.proto = Protocol::kUdp;
  p.dst_port = 80;
  p.size_bytes = 512;
  return p;
}

void BM_FastPathMiss(benchmark::State& state) {
  // One deployment installed; benchmarked packet matches neither table.
  AdaptiveDevice device(0);
  const auto cert = Ca().Issue(1, "o", {NodePrefix(5)}, 0, Seconds(1e6));
  (void)device.InstallDeployment(
      {cert, {NodePrefix(5)}, std::nullopt, RuleChain(4)});
  Packet p = MakePacket(1, 2);
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
}
BENCHMARK(BM_FastPathMiss);

void BM_RedirectTwoStage(benchmark::State& state) {
  // Packet owned on both ends: both stages run, every iteration pays both
  // lookups and the module execution. The /0 argument is unused; it keeps
  // the row's name, and so its bench/BENCH_t4.json baseline.
  AdaptiveDevice device(0);
  const auto cert_src = Ca().Issue(1, "s", {NodePrefix(5)}, 0, Seconds(1e6));
  const auto cert_dst = Ca().Issue(2, "d", {NodePrefix(6)}, 0, Seconds(1e6));
  (void)device.InstallDeployment(
      {cert_src, {NodePrefix(5)}, RuleChain(2), std::nullopt});
  (void)device.InstallDeployment(
      {cert_dst, {NodePrefix(6)}, std::nullopt, RuleChain(2)});
  Packet p = MakePacket(5, 6);
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
}
BENCHMARK(BM_RedirectTwoStage)->Arg(0);

void BM_BatchProcess(benchmark::State& state) {
  // The router-facing entry point: a PacketBatch driven through
  // ProcessBatch, batch-of-1 exactly as RouterReceive does it.
  AdaptiveDevice device(0);
  const auto cert = Ca().Issue(1, "o", {NodePrefix(6)}, 0, Seconds(1e6));
  (void)device.InstallDeployment(
      {cert, {NodePrefix(6)}, std::nullopt, RuleChain(2)});
  Packet p = MakePacket(5, 6);
  RouterContext ctx;
  for (auto _ : state) {
    PacketBatch batch;
    batch.Add(p);
    device.ProcessBatch(batch, ctx);
    benchmark::DoNotOptimize(batch.alive_count());
  }
}
BENCHMARK(BM_BatchProcess);

void BM_FlightRecorder(benchmark::State& state) {
  // Forensics overhead on the redirect path — the packets a recorder
  // actually captures. range(0)==0 is the default
  // (no recorder attached: one never-taken null test per packet, the
  // perf-smoke guarded configuration); 1 records every verdict into the
  // bounded ring.
  AdaptiveDevice device(0);
  obs::FlightRecorder recorder;
  if (state.range(0) == 1) device.AttachFlightRecorder(&recorder);
  const auto cert = Ca().Issue(1, "o", {NodePrefix(6)}, 0, Seconds(1e6));
  (void)device.InstallDeployment(
      {cert, {NodePrefix(6)}, std::nullopt, RuleChain(2)});
  Packet p = MakePacket(5, 6);
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
}
BENCHMARK(BM_FlightRecorder)->Arg(0)->Arg(1);

void BM_RuleChainLength(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  AdaptiveDevice device(0);
  const auto cert = Ca().Issue(1, "o", {NodePrefix(6)}, 0, Seconds(1e6));
  (void)device.InstallDeployment(
      {cert, {NodePrefix(6)}, std::nullopt, RuleChain(rules)});
  Packet p = MakePacket(1, 6);  // traverses the whole chain (no match)
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
  state.SetComplexityN(rules);
}
BENCHMARK(BM_RuleChainLength)->RangeMultiplier(4)->Range(1, 256)
    ->Complexity(benchmark::oN);

void BM_RedirectTableSize(benchmark::State& state) {
  // Many subscribers; benchmark the fast-path lookup cost as the table
  // grows — the Sec. 5.3 "number of rules installed" scaling factor.
  const int subscribers = static_cast<int>(state.range(0));
  AdaptiveDevice device(0);
  for (int i = 0; i < subscribers; ++i) {
    const NodeId node = static_cast<NodeId>(1000 + i);
    const auto cert = Ca().Issue(static_cast<SubscriberId>(i + 1),
                                 "o" + std::to_string(i), {NodePrefix(node)},
                                 0, Seconds(1e6));
    (void)device.InstallDeployment(
        {cert, {NodePrefix(node)}, std::nullopt, RuleChain(1)});
  }
  Packet p = MakePacket(1, 2);  // miss
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
  state.SetComplexityN(subscribers);
}
BENCHMARK(BM_RedirectTableSize)->RangeMultiplier(4)->Range(1, 1024)
    ->Complexity();

void BM_TwoStageVsMerged(benchmark::State& state) {
  // Ablation: the same 4 modules as two 2-module stages (paper design)
  // vs one merged 4-module destination stage. range(0)==0 -> two-stage.
  const bool merged = state.range(0) == 1;
  AdaptiveDevice device(0);
  const auto cert = Ca().Issue(1, "o", {NodePrefix(5), NodePrefix(6)}, 0,
                               Seconds(1e6));
  if (merged) {
    (void)device.InstallDeployment(
        {cert, {NodePrefix(5), NodePrefix(6)}, std::nullopt, RuleChain(4)});
  } else {
    (void)device.InstallDeployment(
        {cert, {NodePrefix(5), NodePrefix(6)}, RuleChain(2), RuleChain(2)});
  }
  Packet p = MakePacket(5, 6);
  RouterContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.Process(p, ctx));
  }
}
BENCHMARK(BM_TwoStageVsMerged)->Arg(0)->Arg(1);

void BM_PrefixTrieLookup(benchmark::State& state) {
  PrefixTrie<int> trie;
  const int entries = static_cast<int>(state.range(0));
  for (int i = 0; i < entries; ++i) {
    trie.Insert(NodePrefix(static_cast<NodeId>(i)), i);
  }
  std::uint32_t address = 0;
  for (auto _ : state) {
    address += 0x1013;
    benchmark::DoNotOptimize(trie.LongestMatch(Ipv4Address(address)));
  }
  state.SetComplexityN(entries);
}
BENCHMARK(BM_PrefixTrieLookup)->RangeMultiplier(8)->Range(8, 4096)
    ->Complexity();

// The lookups AdaptiveDevice::Process makes per packet: one source and
// one destination host address, each under an installed node /20, so
// every lookup walks all 20 prefix bits. (BM_PrefixTrieLookup's strided
// addresses mostly leave the trie after a few bits.) One iteration is one
// packet: two lookups. Informational: no baseline entry.
void BM_PrefixTrieHostLookup(benchmark::State& state) {
  PrefixTrie<int> src_redirect;
  PrefixTrie<int> dst_redirect;
  const auto nodes = static_cast<NodeId>(state.range(0));
  for (NodeId node = 0; node < nodes; ++node) {
    src_redirect.Insert(NodePrefix(node), 1);
    dst_redirect.Insert(NodePrefix(node), 1);
  }
  NodeId src = 0;
  NodeId dst = nodes / 2;
  std::uint32_t slot = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        src_redirect.LongestMatch(HostAddress(src, slot)));
    benchmark::DoNotOptimize(
        dst_redirect.LongestMatch(HostAddress(dst, slot)));
    src = src + 1 == nodes ? 0 : src + 1;
    dst = dst + 1 == nodes ? 0 : dst + 1;
    slot = slot % 1000 + 1;
  }
}
BENCHMARK(BM_PrefixTrieHostLookup)->RangeMultiplier(8)->Range(8, 4096);

}  // namespace
}  // namespace adtc

// BENCHMARK_MAIN() with a harness-wide `--json <path>` spelling: it maps
// onto google-benchmark's own JSON reporter so T4 results land in the
// same machine-readable form as the plain-main experiment binaries.
int main(int argc, char** argv) {
  const std::string json_path = adtc::bench::ExtractJsonFlag(&argc, argv);
  std::vector<std::string> extra;
  if (!json_path.empty()) {
    extra.push_back("--benchmark_out=" + json_path);
    extra.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args(argv, argv + argc);
  for (auto& arg : extra) args.push_back(arg.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
