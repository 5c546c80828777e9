// Untraced runs through the program's public entry points.  Each run
// builds its stack (timed as set-up), runs it (timed as wall) and
// returns the run's fingerprint in the dialect the repo's own tools
// print for that entry point, so pinned values can come straight from
// `precinct_sim --fingerprint` and `precinct_ctl oracle --fingerprint`.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/world_scenario.hpp"
#include "transport/node_daemon.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunResult {
  std::string fingerprint;
  double setup_s = 0.0;  ///< config validation + stack construction
  double wall_s = 0.0;   ///< first event to finalize
};

/// One core::Scenario run; core::fingerprint dialect.
[[nodiscard]] RunResult run_plain(const precinct::core::PrecinctConfig& c);

struct WorldRun {
  RunResult run;
  precinct::core::WorldShardedMetrics metrics;
};

/// One core::WorldShardedScenario run on `shards` workers;
/// core::world_fingerprint dialect (independent of `shards`).
[[nodiscard]] WorldRun run_world(precinct::core::PrecinctConfig c,
                                 std::uint32_t shards);

struct FleetRun {
  RunResult run;
  std::vector<precinct::transport::DomainReport> reports;
};

/// One transport::NodeDaemon per region column, each on its own thread,
/// exchanging datagrams over loopback; transport::fleet_fingerprint
/// dialect.  Throws if any daemon fails or stops short of the horizon.
[[nodiscard]] FleetRun run_fleet(const precinct::core::PrecinctConfig& c);

/// Stack construction only, timed and torn down again: the set-up half
/// of the run functions above, for sampling set-up time on its own.
[[nodiscard]] double setup_plain(const precinct::core::PrecinctConfig& c);
[[nodiscard]] double setup_world(const precinct::core::PrecinctConfig& c);
[[nodiscard]] double setup_fleet(const precinct::core::PrecinctConfig& c);

}  // namespace e2ebench
