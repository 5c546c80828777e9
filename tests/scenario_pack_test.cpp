// Scenario packs (DESIGN.md §15): the checked-in workload bundles under
// examples/packs/ stay pinned.  Each pack's [reduced] golden section is
// re-run and diffed here (the [full] section is CI's golden gate), both
// parallel executors — tiled and world-sharded — must reproduce every
// pack byte-identically for K in {1, 2, 4}, and every pack must survive
// a check=all audit.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/pack.hpp"
#include "core/scenario.hpp"
#include "core/sharded_scenario.hpp"
#include "core/world_scenario.hpp"
#include "support/kv_file.hpp"

namespace {

using namespace precinct;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ScenarioPack, CatalogListsEveryShippedPack) {
  // The one explicit list of pack names: every other test iterates the
  // catalog, so this is what notices a pack going missing.
  const std::vector<std::string> shipped = {
      "adaptive-pull-s17",  "bernoulli-loss-s31", "churn-dynamic-s23",
      "commuter-daynight",  "flash-crowd",        "flooding-s11",
      "gilbert-elliott-s37", "large-grid-s29",    "manhattan-rush",
      "plain-push-s19",     "precinct-mobile-s7", "ring-s13",
      "roadside-mix"};
  EXPECT_EQ(core::list_packs(), shipped) << "packs in " << core::pack_dir();
}

TEST(ScenarioPack, UnknownNamePrintsTheCatalog) {
  try {
    (void)core::load_pack("no-such-pack");
    FAIL() << "load_pack accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // A typo must list what IS available, not just fail.
    EXPECT_NE(what.find("no-such-pack"), std::string::npos) << what;
    EXPECT_NE(what.find("manhattan-rush"), std::string::npos) << what;
  }
}

TEST(ScenarioPack, ConfigsValidateAndDeclareTheirWorkload) {
  // Spot-check that each pack actually configures the workload its name
  // promises (load_pack already ran validate()).
  EXPECT_EQ(core::load_pack("manhattan-rush").config.mobility_model,
            "manhattan");
  EXPECT_EQ(core::load_pack("commuter-daynight").config.mobility_model,
            "commuter");
  const core::ScenarioPack mix = core::load_pack("roadside-mix");
  ASSERT_EQ(mix.config.node_classes.size(), 2u);
  EXPECT_TRUE(mix.config.has_fixed_nodes());
  const core::ScenarioPack flash = core::load_pack("flash-crowd");
  EXPECT_GE(flash.config.request_rate_multiplier, 100.0);
  EXPECT_EQ(flash.config.check, "all");
}

TEST(ScenarioPack, ReducedForTestOnlyTrimsTheWindows) {
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    core::PrecinctConfig reduced = core::reduced_for_test(pack.config);
    EXPECT_LE(reduced.warmup_s, 10.0) << name;
    EXPECT_LE(reduced.measure_s, 30.0) << name;
    // Everything but the windows is the configured workload.
    reduced.warmup_s = pack.config.warmup_s;
    reduced.measure_s = pack.config.measure_s;
    EXPECT_EQ(core::config_to_string(reduced),
              core::config_to_string(pack.config))
        << name << ": reduced_for_test changed more than the windows";
  }
}

TEST(ScenarioPack, ReducedGoldenSectionsMatch) {
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    const core::PackGolden golden =
        core::parse_golden(read_file(pack.golden_path));
    const std::string actual =
        core::fingerprint(core::run_scenario(core::reduced_for_test(pack.config)));
    EXPECT_EQ(actual, golden.reduced)
        << "pack '" << name << "' drifted from its [reduced] golden; "
        << "re-baseline deliberately with precinct_sim --pack " << name
        << " --write-golden";
  }
}

TEST(ScenarioPack, GoldenFilesAreRenderFixedPoints) {
  // parse -> render must reproduce the checked-in bytes exactly, so a
  // hand-edited golden that still parses cannot silently drift from what
  // --write-golden would regenerate.
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    const std::string text = read_file(pack.golden_path);
    EXPECT_EQ(core::render_golden(name, core::parse_golden(text)), text)
        << name;
  }
}

TEST(ScenarioPack, ParseGoldenRejectsMalformedFiles) {
  EXPECT_THROW((void)core::parse_golden(""), std::invalid_argument);
  EXPECT_THROW((void)core::parse_golden("[full]\na=1\n"),
               std::invalid_argument);  // missing [reduced]
  EXPECT_THROW((void)core::parse_golden("a=1\n[full]\n[reduced]\n"),
               std::invalid_argument);  // content before the first section
}

TEST(ScenarioPack, EveryPackSurvivesCheckAll) {
  // flash-crowd bakes check=all into its config; force it for the rest so
  // each pack's reduced run is a full invariant audit.
  for (const std::string& name : core::list_packs()) {
    core::PrecinctConfig c =
        core::reduced_for_test(core::load_pack(name).config);
    c.check = "all";
    EXPECT_NO_THROW((void)core::run_scenario(c)) << name;
  }
}

/// Per-pack executor gates: one ctest per pack, so `ctest -j` spreads
/// the longest suite across cores.
class ScenarioPackShards : public ::testing::TestWithParam<std::string> {
 protected:
  /// The pack at reduced_for_test() windows.
  [[nodiscard]] core::PrecinctConfig reduced_pack() const {
    return core::reduced_for_test(core::load_pack(GetParam()).config);
  }
};

/// Byte-identical fingerprints for K in {1, 2, 4} worker shards (the
/// tiled partition clamps K to its four tiles, so a larger K would re-run
/// the K = 4 cut).
template <typename Render>
void expect_k_invariant(const core::PrecinctConfig& base, Render render) {
  core::PrecinctConfig c = base;
  c.shards = 1;
  const std::string first = render(c);
  for (const std::uint32_t k : {2u, 4u}) {
    c.shards = k;
    EXPECT_EQ(render(c), first) << "diverged at shards=" << k;
  }
}

TEST_P(ScenarioPackShards, TiledShardInvariantAtReducedScale) {
  // The tiled executor's contract (DESIGN.md §11): the pack wrapped in a
  // 2x2 tile world with gateway traffic reproduces for every K.
  core::PrecinctConfig c = reduced_pack();
  c.tiles_x = c.tiles_y = 2;
  c.gateway_interval_s = 5.0;
  c.gateway_latency_s = 0.25;
  expect_k_invariant(c, [](const core::PrecinctConfig& k) {
    return core::sharded_fingerprint(core::run_sharded_scenario(k));
  });
}

TEST_P(ScenarioPackShards, WorldShardInvariantAtReducedScale) {
  // The world executor's contract (DESIGN.md §13): the pack run as ONE
  // world cut into region-column domains reproduces for every K.
  // dynamic_regions is a global reconfiguration world mode rejects, so a
  // churn pack keeps its kills and revives but drops the rebalancer.
  core::PrecinctConfig c = reduced_pack();
  c.dynamic_regions = false;
  expect_k_invariant(c, [](const core::PrecinctConfig& k) {
    return core::world_fingerprint(core::run_world_scenario(k));
  });
}

INSTANTIATE_TEST_SUITE_P(, ScenarioPackShards,
                         ::testing::ValuesIn(core::list_packs()));

}  // namespace
