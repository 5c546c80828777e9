// e2e_runner: runs one benchmark workload and prints its metrics.
//
//   e2e_runner --workload NAME --seed N --seconds S --trace 0|1
//              [--pins DIR]
//   e2e_runner --workload NAME --seed N --emit-config
//
// --trace 0 repeats untraced runs for S seconds and reports the
// end-to-end metrics (medians over the runs).  --trace 1 makes the
// traced pass instead and reports the per-layer metrics.  Every run's
// fingerprint is compared with DIR/<workload>/seed-<N>.txt when that
// file exists; otherwise with the equalities a run can prove by itself.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  --emit-config prints the generated scenario in the key=value
// schema `precinct_sim --config` reads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_context.hpp"
#include "core/config_io.hpp"
#include "drive.hpp"
#include "metric_table.hpp"
#include "traced_stack.hpp"
#include "workloads.hpp"

namespace {

namespace pc = precinct::core;
namespace tr = precinct::transport;
using namespace e2ebench;

/// Set-up-only samples: a batch before the first timed repetition and
/// after each one, so the samples span the whole run.  Each batch takes
/// up to kSetupBatch samples within kSetupBatchS, at least one.
constexpr int kSetupBatch = 50;
constexpr double kSetupBatchS = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string pins = "e2ebench/pins";
  bool emit_config = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-config") {
      a.emit_config = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--pins") {
      a.pins = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return a;
}

/// Operation ledger.  One operation is one workload run; it fails if it
/// throws or a fingerprint it must match differs.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  template <class F>
  auto run(const std::string& what, F&& f) -> std::optional<decltype(f())> {
    ++attempted;
    try {
      return f();
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "FAILED " << what << ": " << e.what() << '\n';
      return std::nullopt;
    }
  }

  /// Like run(), for a step that is not a workload run (a set-up
  /// sample): it counts as an operation only if it fails.
  template <class F>
  auto step(const std::string& what, F&& f) -> std::optional<decltype(f())> {
    auto r = run(what, std::forward<F>(f));
    if (r) --attempted;
    return r;
  }

  /// Marks the current operation failed on a mismatch.
  void expect_same(const std::string& what, const std::string& expected,
                   const std::string& actual) {
    if (expected == actual) return;
    ++failed;
    std::cerr << "FAILED " << what << ": fingerprint differs\n--- expected\n"
              << expected << "--- actual\n"
              << actual;
  }
};

std::optional<std::string> load_pin(const std::string& dir,
                                    const std::string& workload,
                                    std::uint64_t seed) {
  std::ifstream in(dir + "/" + workload + "/seed-" + std::to_string(seed) +
                   ".txt");
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// World shards used for the parallel run of a world-like workload.
std::uint32_t parallel_shards(const Workload& w, const pc::PrecinctConfig& c) {
  return w.kind == Kind::kFleet ? c.regions_x : c.shards;
}

using Values = std::map<std::string, double, std::less<>>;

// -- timed pass ---------------------------------------------------------------

Values timed_pass(const Workload& w, const pc::PrecinctConfig& c,
                  const std::optional<std::string>& pin, double seconds,
                  Ops& ops) {
  // Without a pin, the first repetition is the reference the others
  // must match, and it is proven after the timed loop, so pinned and
  // unpinned seeds measure under the same conditions.
  std::string reference = pin.value_or("");

  const auto one_run = [&]() -> RunResult {
    switch (w.kind) {
      case Kind::kPlain: return run_plain(c);
      case Kind::kWorld: return run_world(c, c.shards).run;
      case Kind::kFleet: return run_fleet(c).run;
    }
    throw std::logic_error("unknown workload kind");
  };
  const auto one_setup = [&]() -> double {
    switch (w.kind) {
      case Kind::kPlain: return setup_plain(c);
      case Kind::kWorld: return setup_world(c);
      case Kind::kFleet: return setup_fleet(c);
    }
    throw std::logic_error("unknown workload kind");
  };

  std::vector<double> setups;
  std::vector<double> walls;
  const auto sample_setups = [&] {
    const Clock::time_point s0 = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) {
      if (i > 0 && seconds_since(s0) > kSetupBatchS) break;
      if (auto s = ops.step("set-up", one_setup)) setups.push_back(*s);
    }
  };
  sample_setups();
  const Clock::time_point t0 = Clock::now();
  do {
    if (auto r = ops.run(w.name, one_run)) {
      if (reference.empty()) reference = r->fingerprint;
      ops.expect_same(w.name, reference, r->fingerprint);
      walls.push_back(r->wall_s);
      setups.push_back(r->setup_s);
      std::fprintf(stderr, "run %zu: wall %.4f s, set-up %.6f s\n",
                   walls.size(), r->wall_s, r->setup_s);
    }
    sample_setups();
  } while (seconds_since(t0) < seconds);

  const double wall = median(walls);
  Values v = {
      {"wall_s", wall},
      {"sim_s_per_wall_s", ratio(simulated_seconds(c), wall)},
      {"setup_s", median(setups)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  if (!pin && !reference.empty() && w.kind == Kind::kWorld) {
    if (auto r = ops.run("world K=1", [&] { return run_world(c, 1); })) {
      ops.expect_same("world K=1 vs K=" + std::to_string(c.shards),
                      r->run.fingerprint, reference);
    }
  }
  if (!pin && !reference.empty() && w.kind == Kind::kFleet) {
    if (auto r = ops.run("fleet oracle", [&] { return run_world(c, c.shards); })) {
      ops.expect_same("fleet vs oracle", tr::fleet_fingerprint(r->metrics),
                      reference);
    }
  }
  return v;
}

// -- traced pass --------------------------------------------------------------

void scenario_layers(const RunResult& untraced, const TraceReport& t,
                     Values& v) {
  const pc::Metrics& m = t.metrics;
  const auto events = static_cast<double>(t.events);
  v["sim.events"] = events;
  v["sim.ns_per_event"] = ratio(untraced.wall_s * 1e9, events);
  v["sim.slice_ms_p50"] = quantile(t.slice_ms, 0.50);
  v["sim.slice_ms_p99"] = quantile(t.slice_ms, 0.99);

  v["mobility.position_calls"] = static_cast<double>(t.position_calls);
  v["mobility.calls_per_event"] =
      ratio(static_cast<double>(t.position_calls + t.speed_calls), events);
  v["mobility.self_s"] = t.mobility_self_s;
  v["mobility.share"] = ratio(t.mobility_self_s, t.run_s);

  const auto sent = static_cast<double>(t.frames_sent);
  const auto delivered = static_cast<double>(t.deliveries);
  const auto dropped = static_cast<double>(t.frames_dropped);
  v["net.neighbor_cold_ns"] = median(t.neighbor_cold_ns);
  v["net.neighbor_warm_ns"] = median(t.neighbor_warm_ns);
  v["net.neighbor_degree"] = mean(t.neighbor_degree);
  v["net.frames_sent"] = sent;
  v["net.deliveries_per_send"] = ratio(delivered, sent);
  v["net.frames_lost"] = static_cast<double>(t.frames_lost);
  v["net.frame_pool_capacity"] = static_cast<double>(t.frame_pool_capacity);

  v["channel.frames_dropped"] = dropped;
  v["channel.drop_ratio"] = ratio(dropped, dropped + delivered);

  v["routing.gpsr_next_hop_ns"] = median(t.gpsr_next_hop_ns);
  v["routing.flood_deliveries"] = static_cast<double>(t.flood_deliveries);
  v["routing.drops_void"] = static_cast<double>(t.drops_void);
  v["routing.drops_ttl"] = static_cast<double>(t.drops_ttl);

  v["cache.find_ns"] = median(t.cache_find_ns);
  v["cache.resident_entries"] = static_cast<double>(t.resident_entries);
  v["cache.fill_ratio"] = t.fill_ratio;
  v["cache.hit_ratio"] = m.hit_ratio();
  v["cache.byte_hit_ratio"] = m.byte_hit_ratio();

  const auto issued = static_cast<double>(m.requests_issued);
  v["core.requests_issued"] = issued;
  v["core.success_ratio"] = m.success_ratio();
  v["core.messages_per_request"] =
      ratio(static_cast<double>(m.messages_sent), issued);
  v["core.consistency_messages"] = static_cast<double>(m.consistency_messages);
  v["core.retransmissions"] = static_cast<double>(m.retransmissions);
  v["core.duplicates_suppressed"] =
      static_cast<double>(m.duplicate_responses_suppressed);
  v["core.custody_handoffs"] = static_cast<double>(m.custody_handoffs);

  v["trace.overhead_ratio"] = ratio(t.run_s, untraced.wall_s);
}

void exec_layer(const WorldRun& k1, const WorldRun& kn,
                const RunResult& plain, Values& v) {
  const pc::WorldShardedMetrics& m = kn.metrics;
  v["exec.windows"] = static_cast<double>(m.windows);
  v["exec.us_per_window"] =
      ratio(kn.run.wall_s * 1e6, static_cast<double>(m.windows));
  v["exec.frames_posted"] = static_cast<double>(m.frames_posted);
  v["exec.deltas_posted"] = static_cast<double>(m.deltas_posted);
  v["exec.messages_merged"] = static_cast<double>(m.messages_merged);
  v["exec.replication_tax"] = ratio(k1.run.wall_s, plain.wall_s);
  v["exec.parallel_speedup"] = ratio(k1.run.wall_s, kn.run.wall_s);
}

void transport_layer(const FleetRun& f, Values& v) {
  tr::TransportCounters sum;
  for (const tr::DomainReport& r : f.reports) {
    sum.datagrams_sent += r.counters.datagrams_sent;
    sum.datagram_bytes_sent += r.counters.datagram_bytes_sent;
    sum.retransmits += r.counters.retransmits;
    sum.nacks_sent += r.counters.nacks_sent;
    sum.duplicates_dropped += r.counters.duplicates_dropped;
  }
  // Every domain steps through the same windows.
  const auto windows = static_cast<double>(f.reports.front().counters.windows);
  v["transport.us_per_window"] = ratio(f.run.wall_s * 1e6, windows);
  v["transport.datagrams_per_window"] =
      ratio(static_cast<double>(sum.datagrams_sent), windows);
  v["transport.datagram_bytes_sent"] =
      static_cast<double>(sum.datagram_bytes_sent);
  v["transport.retransmits"] = static_cast<double>(sum.retransmits);
  v["transport.nacks_sent"] = static_cast<double>(sum.nacks_sent);
  v["transport.duplicates_dropped"] =
      static_cast<double>(sum.duplicates_dropped);
}

Values traced_pass(const Workload& w, const pc::PrecinctConfig& c,
                   const std::optional<std::string>& pin, Ops& ops) {
  Values v;
  for (const MetricSpec& s : kPerLayer) {
    if (s.name.starts_with("exec.") || s.name.starts_with("transport.")) {
      v[std::string(s.name)] = 0.0;  // not exercised unless set below
    }
  }

  // The Scenario layers: an untraced run and the traced hand-built stack
  // of the same plain config (world-like workloads run their config as
  // one Scenario here).
  pc::PrecinctConfig plain = c;
  plain.shards = 1;
  const auto untraced = ops.run("untraced", [&] { return run_plain(plain); });
  const auto traced =
      ops.run("traced", [&] { return TracedStack(plain).run(); });
  if (untraced && traced) {
    ops.expect_same("traced vs untraced", untraced->fingerprint,
                    traced->fingerprint);
    scenario_layers(*untraced, *traced, v);
  }
  if (w.kind == Kind::kPlain) {
    if (pin && untraced) ops.expect_same("pinned", *pin, untraced->fingerprint);
    return v;
  }

  const auto k1 = ops.run("world K=1", [&] { return run_world(c, 1); });
  const std::uint32_t k = parallel_shards(w, c);
  const auto kn = ops.run("world K=" + std::to_string(k),
                          [&] { return run_world(c, k); });
  if (k1 && kn) {
    ops.expect_same("world K=1 vs K=" + std::to_string(k),
                    k1->run.fingerprint, kn->run.fingerprint);
    if (untraced) exec_layer(*k1, *kn, *untraced, v);
  }
  if (w.kind == Kind::kWorld) {
    if (pin && kn) ops.expect_same("pinned", *pin, kn->run.fingerprint);
    return v;
  }
  const auto fleet = ops.run("fleet", [&] { return run_fleet(c); });
  if (fleet) {
    if (k1) {
      ops.expect_same("fleet vs oracle", tr::fleet_fingerprint(k1->metrics),
                      fleet->run.fingerprint);
    }
    if (pin) ops.expect_same("pinned", *pin, fleet->run.fingerprint);
    transport_layer(*fleet, v);
  }
  return v;
}

// -- output -------------------------------------------------------------------

template <std::size_t N>
void print_result(const Ops& ops, const Values& values,
                  const std::array<MetricSpec, N>& specs) {
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    if (it == values.end()) {
      complete = false;  // a failed run left this metric unmeasured
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(s.name) + "\": {\"value\": " + value +
               ", \"unit\": \"" + std::string(s.unit) + "\"}";
  }
  const bool correct = complete && ops.failed == 0 && ops.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(ops.attempted, 1)),
      static_cast<unsigned long long>(ops.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) {
      std::cerr << "unknown workload '" << args.workload << "'; known:";
      for (const Workload& k : workloads()) std::cerr << ' ' << k.name;
      std::cerr << '\n';
      return 2;
    }
    const pc::PrecinctConfig config = make_config(*w, args.seed);
    if (args.emit_config) {
      std::cout << pc::config_to_string(config);
      return 0;
    }

    const precinct::bench::BenchContext ctx =
        precinct::bench::capture_bench_context();
    std::printf("context: build=%s cores=%u governor=%s workload=%s seed=%llu\n",
                ctx.build_type.c_str(), ctx.cores, ctx.cpu_governor.c_str(),
                w->name, static_cast<unsigned long long>(args.seed));
    if (ctx.build_type != "Release") {
      std::cerr << "refusing to report numbers from a " << ctx.build_type
                << " build; build e2ebench with CMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    if (!ctx.trustworthy) std::cerr << "caveat: " << ctx.caveat << '\n';

    const std::optional<std::string> pin =
        load_pin(args.pins, w->name, args.seed);
    if (!pin) {
      std::cerr << "no pinned fingerprint for " << w->name << " seed "
                << args.seed << "; checking self-equalities only\n";
    }
    Ops ops;
    if (args.trace == 0) {
      print_result(ops, timed_pass(*w, config, pin, args.seconds, ops),
                   kEndToEnd);
    } else {
      print_result(ops, traced_pass(*w, config, pin, ops), kPerLayer);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_runner: " << e.what() << '\n';
    return 2;
  }
}
