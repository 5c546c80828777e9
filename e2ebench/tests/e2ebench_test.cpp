// Tests of the benchmark itself: the mobility decorator forwards, the
// sliced traced stack reproduces Scenario::run(), the metric table obeys
// the benchmark format, and the workloads split the layers as intended.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>

#include "core/scenario.hpp"
#include "metric_table.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "traced_stack.hpp"
#include "workloads.hpp"

namespace {

namespace pc = precinct::core;
namespace pm = precinct::mobility;
using e2ebench::CountingMobility;
using e2ebench::TracedStack;

pm::RandomWaypointConfig small_rwp() {
  pm::RandomWaypointConfig rwp;
  rwp.area = {{0.0, 0.0}, {500.0, 500.0}};
  return rwp;
}

TEST(CountingMobility, ForwardsAllFourMethodsOfAMovingModel) {
  pm::RandomWaypoint reference(12, small_rwp(), 42);
  CountingMobility counted(
      std::make_unique<pm::RandomWaypoint>(12, small_rwp(), 42));
  EXPECT_EQ(counted.node_count(), reference.node_count());
  EXPECT_FALSE(counted.time_invariant());
  for (double t = 0.0; t < 200.0; t += 7.5) {
    for (std::size_t n = 0; n < 12; ++n) {
      const precinct::geo::Point want = reference.position_at(n, t);
      const precinct::geo::Point got = counted.position_at(n, t);
      EXPECT_EQ(got.x, want.x);
      EXPECT_EQ(got.y, want.y);
      EXPECT_EQ(counted.speed_at(n, t), reference.speed_at(n, t));
    }
  }
  EXPECT_EQ(counted.position_calls(), 27u * 12u);
  EXPECT_EQ(counted.speed_calls(), 27u * 12u);
  EXPECT_GT(counted.self_s(), 0.0);

  // Probe-time queries forward but are not counted.
  counted.set_paused(true);
  (void)counted.position_at(0, 300.0);
  (void)counted.speed_at(0, 300.0);
  EXPECT_EQ(counted.position_calls(), 27u * 12u);
  EXPECT_EQ(counted.speed_calls(), 27u * 12u);
}

TEST(CountingMobility, ForwardsTimeInvarianceOfAStaticModel) {
  const precinct::geo::Rect area{{0.0, 0.0}, {500.0, 500.0}};
  pm::StaticPlacement reference = pm::StaticPlacement::uniform(9, area, 5);
  CountingMobility counted(std::make_unique<pm::StaticPlacement>(
      pm::StaticPlacement::uniform(9, area, 5)));
  // The radio's snapshot fast path keys on this; dropping it would
  // silently change what static-lossy-320 measures.
  EXPECT_TRUE(counted.time_invariant());
  EXPECT_EQ(counted.node_count(), 9u);
  for (std::size_t n = 0; n < 9; ++n) {
    EXPECT_EQ(counted.position_at(n, 3.0).x, reference.position_at(n, 3.0).x);
    EXPECT_EQ(counted.speed_at(n, 3.0), 0.0);
  }
}

pc::PrecinctConfig small_config(bool mobile) {
  pc::PrecinctConfig c;
  c.n_nodes = 40;
  c.area = {{0.0, 0.0}, {700.0, 700.0}};
  c.regions_x = c.regions_y = 2;
  c.mobility_model = mobile ? "random-waypoint" : "static";
  c.mobile = mobile;
  c.catalog.n_items = 200;
  c.mean_request_interval_s = 2.0;
  c.updates_enabled = mobile;
  c.warmup_s = 10.0;
  c.measure_s = 30.0;
  c.seed = 3;
  return c;
}

TEST(TracedStack, SlicedProbedRunMatchesOneScenarioRun) {
  for (const bool mobile : {true, false}) {
    const pc::PrecinctConfig c = small_config(mobile);
    const std::string untraced = pc::fingerprint(pc::run_scenario(c));
    const e2ebench::TraceReport traced = TracedStack(c).run();
    EXPECT_EQ(traced.fingerprint, untraced) << "mobile=" << mobile;
    EXPECT_EQ(traced.slice_ms.size(), TracedStack::kSlices);
    EXPECT_GT(traced.events, 0u);
    EXPECT_FALSE(traced.neighbor_cold_ns.empty());
    EXPECT_FALSE(traced.cache_find_ns.empty());
  }
}

TEST(MetricTable, NamesAreWellFormedUniqueAndWithinCaps) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string_view> seen;
  const auto check = [&](const e2ebench::MetricSpec& s) {
    EXPECT_TRUE(std::regex_match(std::string(s.name), name_re)) << s.name;
    EXPECT_TRUE(std::regex_match(std::string(s.unit), unit_re)) << s.unit;
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate " << s.name;
  };
  for (const auto& s : e2ebench::kEndToEnd) check(s);
  for (const auto& s : e2ebench::kPerLayer) check(s);
  // The benchmark format's caps.
  EXPECT_LE(e2ebench::kEndToEnd.size(), 16u);
  EXPECT_LE(e2ebench::kPerLayer.size(), 128u);
  EXPECT_TRUE(seen.count("setup_s"));
}

TEST(Workloads, EveryConfigValidates) {
  for (const e2ebench::Workload& w : e2ebench::workloads()) {
    const pc::PrecinctConfig c = e2ebench::make_config(w, 1);
    EXPECT_NO_THROW(c.validate()) << w.name;
    EXPECT_EQ(c.seed, 1u);
  }
}

/// The workload's config cut to a short window: the layer split the
/// workload was chosen for does not depend on run length.
pc::PrecinctConfig shortened(const char* name) {
  const e2ebench::Workload* w = e2ebench::find_workload(name);
  EXPECT_NE(w, nullptr);
  pc::PrecinctConfig c = e2ebench::make_config(*w, 1);
  c.warmup_s = 10.0;
  c.measure_s = 30.0;
  return c;
}

TEST(Workloads, StaticLossyIdlesMobilityAndDropsFrames) {
  const pc::PrecinctConfig c = shortened("static-lossy-320");
  const e2ebench::TraceReport t = TracedStack(c).run();
  // The time-invariant snapshot path: each trajectory is read once.
  EXPECT_LE(t.position_calls, c.n_nodes);
  EXPECT_GT(t.frames_dropped, 0u);
  EXPECT_GT(t.metrics.retransmissions, 0u);
}

TEST(Workloads, MobileRunsALosslessChannel) {
  const pc::PrecinctConfig c = shortened("mobile-320");
  const e2ebench::TraceReport t = TracedStack(c).run();
  EXPECT_EQ(t.frames_dropped, 0u);
  EXPECT_GT(t.position_calls, 100u * c.n_nodes);
  EXPECT_GT(t.metrics.consistency_messages, 0u);
}

}  // namespace
