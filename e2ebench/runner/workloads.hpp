// The benchmark's pinned workloads.  Each one is a key=value scenario
// text (the same schema `precinct_sim --config` reads) plus the seed the
// runner is given on its command line; the program under test only ever
// sees the resulting PrecinctConfig.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace e2ebench {

/// How a workload is executed.
enum class Kind {
  kPlain,  ///< one core::Scenario
  kWorld,  ///< core::WorldShardedScenario (shards from the config)
  kFleet,  ///< one transport::NodeDaemon thread per domain, loopback UDP
};

struct Workload {
  const char* name;
  Kind kind;
  const char* why;     ///< one line: what the workload stresses
  const char* config;  ///< key=value scenario text, seed excluded
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Parse the workload's scenario text and set `seed`.  Not validated;
/// the stacks validate on construction.
[[nodiscard]] precinct::core::PrecinctConfig make_config(const Workload& w,
                                                         std::uint64_t seed);

/// Simulated seconds one run advances (warm-up + measurement).
[[nodiscard]] double simulated_seconds(
    const precinct::core::PrecinctConfig& config);

}  // namespace e2ebench
