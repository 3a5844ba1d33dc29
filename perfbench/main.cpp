// adtc_perfbench: builds and runs one seeded world once and prints one
// JSON line with its timings, model outputs, end-state digest and (with
// --trace 1) per-layer metrics. perfbench/run.py repeats it for the
// measured duration and aggregates; see perfbench/NOTES.md.
//
//   adtc_perfbench --workload reflector-tcs --seed 7 --trace 0
//                  [--spans out.jsonl]
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "tracer.h"
#include "worlds.h"

using namespace adtc;
using namespace adtc::perfbench;

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile (0 for an empty sample).
template <typename T>
double Percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]);
}

std::uint64_t LinkHops(const Network& net) {
  std::uint64_t hops = 0;
  for (LinkId link = 0; link < net.link_count(); ++link) {
    hops += net.link(link).stats.forwarded_packets;
  }
  return hops;
}

/// FNV-1a over per-class sent / delivered / dropped-by-reason and the
/// link hop count: equal digests mean equal end states.
std::uint64_t EndStateDigest(const Metrics& metrics, std::uint64_t hops) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    mix(metrics.packets_sent[c]);
    mix(metrics.packets_delivered[c]);
    for (std::size_t r = 0; r < kDropReasonCount; ++r) {
      mix(metrics.packets_dropped[c][r]);
    }
  }
  mix(hops);
  return hash;
}

/// JSON string literal (control characters become spaces).
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + '"';
}

/// Minimal JSON object writer for one output line.
class JsonLine {
 public:
  void Num(const char* key, double value) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out_ += buf;
  }
  void Str(const char* key, const std::string& value) {
    Key(key);
    out_ += Quoted(value);
  }
  void Strs(const char* key, const std::vector<std::string>& values) {
    Key(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += Quoted(values[i]);
    }
    out_ += ']';
  }
  void Object(const char* key, const JsonLine& inner) {
    Key(key);
    out_ += inner.Finish();
  }
  std::string Finish() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
};

/// What happened between the start and the end of Network::Run.
struct RunPhase {
  std::int64_t ns = 0;
  std::int64_t ctrl_ns = 0;
  std::uint64_t ctrl_calls = 0;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
};

/// Per-layer metrics of a traced run (names as in BENCHMARK.json).
JsonLine LayerMetrics(const Tracer& tracer, World& world,
                      const RunPhase& run) {
  ShardTrace all;
  for (const ShardTrace& shard : tracer.shards()) {
    all.device_ns += shard.device_ns;
    all.device_fast_ns += shard.device_fast_ns;
    all.server_ns += shard.server_ns;
    all.client_ns += shard.client_ns;
    all.other_host_ns += shard.other_host_ns;
    all.device_fast_calls += shard.device_fast_calls;
    all.device_redirected_calls += shard.device_redirected_calls;
    all.flow_cache_hits += shard.flow_cache_hits;
    all.flow_cache_misses += shard.flow_cache_misses;
    all.stage_runs += shard.stage_runs;
    all.server_calls += shard.server_calls;
    all.half_open_max = std::max(all.half_open_max, shard.half_open_max);
    all.flow_cache_entries_max =
        std::max(all.flow_cache_entries_max, shard.flow_cache_entries_max);
    for (auto [to, from] :
         {std::pair{&all.fast_samples, &shard.fast_samples},
          std::pair{&all.redirected_samples, &shard.redirected_samples},
          std::pair{&all.server_samples, &shard.server_samples}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  std::vector<std::uint32_t> device_samples = all.fast_samples;
  device_samples.insert(device_samples.end(), all.redirected_samples.begin(),
                        all.redirected_samples.end());
  const Metrics metrics = world.net.metrics();
  std::uint64_t queue_drops = 0;
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    queue_drops += metrics.packets_dropped[c][static_cast<std::size_t>(
        DropReason::kQueueFull)];
  }
  const ShardedStats& engine = world.net.engine().stats();
  const double device_calls = static_cast<double>(
      all.device_fast_calls + all.device_redirected_calls);
  const Ctrl& ctrl = world.ctrl;
  const double deploys = static_cast<double>(ctrl.deploy_ns().size());
  const std::int64_t wrapped_ns = all.device_ns + all.server_ns +
                                  all.client_ns + all.other_host_ns +
                                  run.ctrl_ns;

  JsonLine layers;
  layers.Num("sim.events", static_cast<double>(run.events));
  layers.Num("sim.events_per_hop", Ratio(static_cast<double>(run.events),
                                         static_cast<double>(run.hops)));
  layers.Num("sim.self_s", ToSeconds(run.ns - wrapped_ns));
  layers.Num("sim.epochs", static_cast<double>(engine.epochs));
  layers.Num("sim.cross_shard_events",
             static_cast<double>(engine.cross_shard_events));
  layers.Num("net.hops", static_cast<double>(run.hops));
  layers.Num("net.queue_drops", static_cast<double>(queue_drops));
  layers.Num("device.calls", device_calls);
  layers.Num("device.busy_s", ToSeconds(all.device_ns));
  layers.Num("device.ns_p50", Percentile(device_samples, 0.50));
  layers.Num("device.ns_p99", Percentile(device_samples, 0.99));
  layers.Num("device.fast_path_share",
             Ratio(static_cast<double>(all.device_fast_calls), device_calls));
  layers.Num("device.fast_time_share",
             Ratio(static_cast<double>(all.device_fast_ns),
                   static_cast<double>(all.device_ns)));
  layers.Num("device.fast_ns_p50", Percentile(all.fast_samples, 0.50));
  layers.Num("device.redirected_ns_p50",
             Percentile(all.redirected_samples, 0.50));
  layers.Num("device.flow_cache_hit_ratio",
             Ratio(static_cast<double>(all.flow_cache_hits),
                   static_cast<double>(all.flow_cache_hits +
                                       all.flow_cache_misses)));
  layers.Num("device.flow_cache_entries_max",
             static_cast<double>(all.flow_cache_entries_max));
  layers.Num("device.stage_runs_per_redirected",
             Ratio(static_cast<double>(all.stage_runs),
                   static_cast<double>(all.device_redirected_calls)));
  layers.Num("host.server.calls", static_cast<double>(all.server_calls));
  layers.Num("host.server.busy_s", ToSeconds(all.server_ns));
  layers.Num("host.server.ns_p99", Percentile(all.server_samples, 0.99));
  layers.Num("host.server.half_open_max",
             static_cast<double>(all.half_open_max));
  layers.Num("host.client.busy_s", ToSeconds(all.client_ns));
  layers.Num("host.other.busy_s", ToSeconds(all.other_host_ns));
  layers.Num("ctrl.calls", static_cast<double>(ctrl.calls()));
  layers.Num("ctrl.deploy_ms_p50", Percentile(ctrl.deploy_ns(), 0.50) / 1e6);
  layers.Num("ctrl.deploy_ms_p99", Percentile(ctrl.deploy_ns(), 0.99) / 1e6);
  layers.Num("ctrl.withdraw_ms_p50",
             Percentile(ctrl.withdraw_ns(), 0.50) / 1e6);
  layers.Num("ctrl.withdraw_ms_p99",
             Percentile(ctrl.withdraw_ns(), 0.99) / 1e6);
  layers.Num("ctrl.busy_s", ToSeconds(ctrl.busy_ns()));
  layers.Num("ctrl.run_calls", static_cast<double>(run.ctrl_calls));
  layers.Num("ctrl.run_busy_s", ToSeconds(run.ctrl_ns));
  layers.Num("ctrl.devices_per_deploy",
             Ratio(static_cast<double>(ctrl.devices_configured()), deploys));
  layers.Num("ctrl.dedup_records", static_cast<double>(world.DedupRecords()));
  layers.Num("analysis.plan_paths_per_deploy",
             Ratio(static_cast<double>(ctrl.plan_paths()), deploys));
  layers.Num("analysis.plans_proven", static_cast<double>(ctrl.plans_proven()));
  return layers;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "adtc_perfbench: %s\nusage: adtc_perfbench --workload {%s} "
               "--seed N --trace 0|1 [--spans PATH]\n",
               message, WorkloadNames().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  if (argc % 2 == 0) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing or malformed --seed");

  // A multi-shard world keeps all its shard threads on the CPU it starts
  // on. On a shared host one slowed vCPU holds up every epoch barrier:
  // on a 4-vCPU VM, free 2-shard ring-flood processes varied twice as
  // much as pinned ones (CV 0.28 against 0.14). Pinned, the shards still
  // exchange events at every barrier, so the engine and its exchange are
  // measured without the host's scheduling of two vCPUs.
  if (workload->shards > 1) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(sched_getcpu(), &cpus);
    sched_setaffinity(0, sizeof cpus, &cpus);
  }

  // The tracer outlives the world: the network holds pointers to its taps.
  std::unique_ptr<Tracer> tracer;
  if (trace) tracer = std::make_unique<Tracer>(workload->shards);

  const std::int64_t setup_start = NowNs();
  auto world = std::make_unique<World>(seed, workload->shards);
  world->ctrl.set_tracer(tracer.get());
  workload->build(*world);
  const std::int64_t setup_ns = NowNs() - setup_start;

  if (tracer) tracer->Attach(world->net);
  RunPhase run;
  run.ctrl_ns = -world->ctrl.busy_ns();
  run.ctrl_calls = world->ctrl.calls();
  run.events = world->net.engine().executed_events();
  const std::int64_t run_start = NowNs();
  world->net.Run(world->duration);
  run.ns = NowNs() - run_start;
  run.ctrl_ns += world->ctrl.busy_ns();
  run.ctrl_calls = world->ctrl.calls() - run.ctrl_calls;
  run.events = world->net.engine().executed_events() - run.events;
  run.hops = LinkHops(world->net);
  const Metrics metrics = world->net.metrics();

  workload->check(*world);

  const double attack_sent =
      static_cast<double>(metrics.sent(TrafficClass::kAttack));
  const double attack_delivered =
      static_cast<double>(metrics.delivered(TrafficClass::kAttack) +
                          metrics.delivered(TrafficClass::kReflected));
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016" PRIx64,
                EndStateDigest(metrics, run.hops));

  JsonLine line;
  line.Str("workload", workload_name);
  line.Num("seed", static_cast<double>(seed));
  line.Num("traced", trace ? 1 : 0);
  line.Str("build_type", ADTC_PERFBENCH_BUILD_TYPE);
  line.Str("compiler", ADTC_PERFBENCH_COMPILER);
  line.Num("setup_s", ToSeconds(setup_ns));
  line.Num("run_s", ToSeconds(run.ns));
  line.Num("hops", static_cast<double>(run.hops));
  line.Num("peak_rss_mb", PeakRssMb());
  line.Num("goodput", world->Goodput());
  line.Num("attack_leak", Ratio(attack_delivered, attack_sent));
  line.Num("ctrl_calls", static_cast<double>(world->ctrl.calls()));
  line.Num("ctrl_failed", static_cast<double>(world->ctrl.failed()));
  line.Str("digest", digest);
  line.Strs("failures", world->failures);
  if (tracer) {
    line.Object("layers", LayerMetrics(*tracer, *world, run));
    if (!spans_path.empty() && !tracer->WriteSpans(spans_path)) {
      std::fprintf(stderr, "adtc_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", line.Finish().c_str());
  return 0;
}
