// Configuration-surface tests: table-driven validate() rejections (with
// error-message assertions) and the config_io write -> read -> write
// fixed point over every fingerprint scenario plus a fuzzer-drawn one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/scenario_fuzz.hpp"
#include "core/config_io.hpp"
#include "core/knobs.hpp"
#include "core/pack.hpp"
#include "support/kv_file.hpp"
#include "test_util.hpp"

namespace {

using namespace precinct;
using core::PrecinctConfig;

// ---------------------------------------------------------------------------
// validate() rejection table
// ---------------------------------------------------------------------------

struct RejectionCase {
  const char* name;
  std::function<void(PrecinctConfig&)> corrupt;
  const char* message_fragment;
};

const std::vector<RejectionCase>& rejection_cases() {
  static const std::vector<RejectionCase> cases = {
      {"zero nodes", [](PrecinctConfig& c) { c.n_nodes = 0; },
       "nodes must be >= 1"},
      {"unknown retrieval scheme",
       [](PrecinctConfig& c) { c.retrieval_scheme = "warp-drive"; },
       "unknown retrieval scheme 'warp-drive'"},
      {"unknown consistency scheme",
       [](PrecinctConfig& c) { c.consistency_scheme = "quorum"; },
       "unknown consistency scheme 'quorum'"},
      {"unknown channel model",
       [](PrecinctConfig& c) { c.wireless.channel.model = "quantum"; },
       "unknown channel model 'quantum'"},
      {"negative request retries",
       [](PrecinctConfig& c) { c.request_retries = -1; },
       "retries must be >= 0"},
      {"negative push retries", [](PrecinctConfig& c) { c.push_retries = -2; },
       "push retries must be >= 0"},
      {"loss probability out of range",
       [](PrecinctConfig& c) {
         c.wireless.channel.model = "bernoulli";
         c.wireless.channel.loss_p = 1.5;
       },
       "loss must be in [0, 1]"},
      {"unknown check category", [](PrecinctConfig& c) { c.check = "cachez"; },
       "unknown category 'cachez'"},
      {"unknown token in check list",
       [](PrecinctConfig& c) { c.check = "net,turbo"; },
       "unknown category 'turbo'"},
      {"zero check stride", [](PrecinctConfig& c) { c.check_stride = 0; },
       "check_stride must be >= 1"},
      {"baseline retrieval with polling consistency",
       [](PrecinctConfig& c) {
         c.retrieval = core::RetrievalKind::kFlooding;
         c.consistency = consistency::Mode::kPushAdaptivePull;
         c.updates_enabled = true;
       },
       "has no region-based lookup"},
      {"replicas exceed region count",
       [](PrecinctConfig& c) {
         c.regions_x = c.regions_y = 1;
         c.replica_count = 1;
       },
       "replica_count needs at least replica_count+1 regions"},
      {"unknown mobility model",
       [](PrecinctConfig& c) { c.mobility_model = "teleport"; },
       "unknown mobility model 'teleport'"},
      {"zero street spacing",
       [](PrecinctConfig& c) { c.street_spacing_m = 0.0; },
       "street_spacing must be > 0"},
      {"turn probability out of range",
       [](PrecinctConfig& c) { c.turn_probability = 1.5; },
       "turn_prob must be in [0, 1]"},
      {"street grid does not fit the area",
       [](PrecinctConfig& c) {
         c.mobility_model = "manhattan";
         c.street_spacing_m = 5000.0;
       },
       "street spacing too wide"},
      {"zero commuter period",
       [](PrecinctConfig& c) { c.commuter_period_s = 0.0; },
       "commuter_period must be > 0"},
      {"zero commuter hubs",
       [](PrecinctConfig& c) { c.commuter_hubs = 0; },
       "commuter_hubs must be >= 1"},
      {"class name with illegal characters",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "bad-name";
         cls.count = c.n_nodes;
         c.node_classes = {cls};
       },
       "must use only [A-Za-z0-9_]"},
      {"classes out of name order",
       [](PrecinctConfig& c) {
         core::NodeClassConfig b;
         b.name = "b";
         b.count = 1;
         core::NodeClassConfig a;
         a.name = "a";
         a.count = c.n_nodes - 1;
         c.node_classes = {b, a};
       },
       "must be sorted by name"},
      {"zero-count class",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "ghost";
         cls.count = 0;
         c.node_classes = {cls};
       },
       "must have count > 0"},
      {"class counts do not cover the fleet",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "some";
         cls.count = c.n_nodes + 3;
         c.node_classes = {cls};
       },
       "must sum to n_nodes"},
      {"negative class speed",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "rev";
         cls.count = c.n_nodes;
         cls.speed = -1.0;
         c.node_classes = {cls};
       },
       "speed must be >= 0"},
      {"negative request rate multiplier",
       [](PrecinctConfig& c) { c.request_rate_multiplier = -2.0; },
       "rate_multiplier must be > 0"},
      {"zero request rate multiplier",
       [](PrecinctConfig& c) { c.request_rate_multiplier = 0.0; },
       "rate_multiplier must be > 0"},
      {"zipf drift without a step",
       [](PrecinctConfig& c) {
         c.zipf_drift_per_s = 0.01;
         c.zipf_drift_step_s = 0.0;
       },
       "zipf drift step must be > 0"},
  };
  return cases;
}

TEST(ConfigValidate, RejectsBadConfigsWithSpecificMessages) {
  for (const RejectionCase& rc : rejection_cases()) {
    PrecinctConfig c;
    rc.corrupt(c);
    try {
      c.validate();
      FAIL() << rc.name << ": validate() accepted a bad config";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rc.message_fragment),
                std::string::npos)
          << rc.name << ": message was '" << e.what() << "', expected '"
          << rc.message_fragment << "'";
    }
  }
}

TEST(ConfigValidate, AcceptsEveryCheckCategoryAndCombinations) {
  for (const char* spec :
       {"", "all", "net", "cache", "custody", "pending", "consistency",
        "energy", "net,cache,energy", "all,custody"}) {
    PrecinctConfig c;
    c.check = spec;
    EXPECT_NO_THROW(c.validate()) << "check=" << spec;
  }
}

// ---------------------------------------------------------------------------
// config_io round trip
// ---------------------------------------------------------------------------

/// write -> read -> write must be a fixed point: the first rendering and
/// the rendering of its re-parse agree byte-for-byte.
void expect_roundtrip(const PrecinctConfig& c, const std::string& label) {
  const std::string first = core::config_to_string(c);
  PrecinctConfig reread;
  ASSERT_NO_THROW(reread = core::config_from_kv(
                      support::KvFile::parse(first)))
      << label << ":\n" << first;
  const std::string second = core::config_to_string(reread);
  EXPECT_EQ(first, second) << label;
  EXPECT_NO_THROW(reread.validate()) << label;
}

TEST(ConfigIo, EveryPackConfigRoundTrips) {
  for (const std::string& name : core::list_packs()) {
    expect_roundtrip(core::load_pack(name).config, name);
  }
}

TEST(ConfigIo, FuzzDrawnConfigsRoundTrip) {
  for (const std::uint64_t seed : {42u, 43u, 44u}) {
    const check::FuzzCase fc = check::draw_scenario(seed);
    expect_roundtrip(fc.config, "fuzz case " + std::to_string(seed));
  }
}

TEST(ConfigIo, BlackoutWindowsRoundTrip) {
  PrecinctConfig c = test_util::grid_config();
  c.wireless.channel.model = "scripted";
  c.wireless.channel.blackouts.push_back({3, 25.0, 45.5});
  c.wireless.channel.blackouts.push_back({11, 30.25, 60.0});
  c.check = "net,custody";
  c.check_stride = 7;
  expect_roundtrip(c, "scripted blackouts");
}

TEST(ConfigIo, RoundTrippedConfigRunsByteIdentically) {
  PrecinctConfig c = test_util::small_scenario();
  c.measure_s = 30.0;
  c.wireless.channel.model = "bernoulli";
  c.wireless.channel.loss_p = 0.1;
  c.request_retries = 2;
  const PrecinctConfig reread =
      core::config_from_kv(support::KvFile::parse(core::config_to_string(c)));
  EXPECT_EQ(core::fingerprint(core::run_scenario(c)),
            core::fingerprint(core::run_scenario(reread)));
}

TEST(ConfigIo, ShardingKnobsRoundTrip) {
  PrecinctConfig c;
  c.shards = 4;
  c.tiles_x = c.tiles_y = 3;
  c.gateway_latency_s = 0.375;
  c.gateway_interval_s = 7.5;
  expect_roundtrip(c, "sharded tile world");

  const PrecinctConfig reread = core::config_from_kv(
      support::KvFile::parse(core::config_to_string(c)));
  EXPECT_EQ(reread.shards, 4u);
  EXPECT_EQ(reread.tiles_x, 3u);
  EXPECT_EQ(reread.tiles_y, 3u);
  EXPECT_DOUBLE_EQ(reread.gateway_latency_s, 0.375);
  EXPECT_DOUBLE_EQ(reread.gateway_interval_s, 7.5);
}

TEST(ConfigValidate, RejectsBadShardingKnobs) {
  {
    PrecinctConfig c;
    c.shards = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.tiles_x = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.tiles_x = c.tiles_y = 2;
    c.gateway_latency_s = 0.0;  // a tiled world's conservative lookahead
                                // must be > 0
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.gateway_interval_s = -1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
}

TEST(ConfigValidate, WorldShardingRejectsTiledKnobs) {
  // shards > 1 with the default 1x1 tile grid selects world sharding,
  // whose lookahead is derived from the radio timing — the gateway knobs
  // and the global region rebalancer must stay quiet.
  {
    PrecinctConfig c;
    c.shards = 2;
    c.gateway_latency_s = 0.25;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.shards = 2;
    c.gateway_interval_s = 5.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.shards = 2;
    c.dynamic_regions = true;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;  // quiet knobs: a world-sharded run validates
    c.shards = 4;
    EXPECT_NO_THROW(c.validate());
  }
}

TEST(ConfigIo, WorldShardedConfigIsAFixedPoint) {
  // write -> read -> write must reproduce the exact same text (the
  // round-trip fixed point), with world sharding selected purely by
  // shards > 1 on the default 1x1 tile grid.
  PrecinctConfig c;
  c.shards = 4;
  c.gateway_latency_s = 0.0;
  c.crash_rate_per_s = 0.01;
  c.join_rate_per_s = 0.01;
  expect_roundtrip(c, "world-sharded run");

  const std::string once = core::config_to_string(c);
  const PrecinctConfig reread =
      core::config_from_kv(support::KvFile::parse(once));
  EXPECT_EQ(reread.shards, 4u);
  EXPECT_EQ(reread.tiles_x, 1u);
  EXPECT_EQ(reread.tiles_y, 1u);
  EXPECT_DOUBLE_EQ(reread.gateway_latency_s, 0.0);
  EXPECT_EQ(core::config_to_string(reread), once);
}

TEST(ConfigIo, ScenarioPackKnobsRoundTrip) {
  // Every key the scenario packs introduced (DESIGN.md §15): structured
  // mobility, node classes, flash-crowd workload shaping.
  PrecinctConfig c;
  c.n_nodes = 24;
  c.mobility_model = "manhattan";
  c.street_spacing_m = 150.0;
  c.turn_probability = 0.3;
  c.commuter_period_s = 120.0;
  c.commuter_hubs = 4;
  c.request_rate_multiplier = 150.0;
  c.zipf_drift_per_s = 0.02;
  c.zipf_drift_step_s = 5.0;
  core::NodeClassConfig phone;
  phone.name = "phone";
  phone.count = 18;
  phone.speed = 4.0;
  core::NodeClassConfig rsu;
  rsu.name = "rsu";
  rsu.count = 6;
  rsu.cache_kb = 96.0;
  rsu.fixed = true;
  c.node_classes = {phone, rsu};
  expect_roundtrip(c, "scenario pack knobs");

  const PrecinctConfig reread =
      core::config_from_kv(support::KvFile::parse(core::config_to_string(c)));
  EXPECT_EQ(reread.mobility_model, "manhattan");
  EXPECT_DOUBLE_EQ(reread.street_spacing_m, 150.0);
  EXPECT_DOUBLE_EQ(reread.turn_probability, 0.3);
  EXPECT_EQ(reread.commuter_hubs, 4u);
  EXPECT_DOUBLE_EQ(reread.request_rate_multiplier, 150.0);
  EXPECT_DOUBLE_EQ(reread.zipf_drift_per_s, 0.02);
  EXPECT_DOUBLE_EQ(reread.zipf_drift_step_s, 5.0);
  ASSERT_EQ(reread.node_classes.size(), 2u);
  EXPECT_EQ(reread.node_classes[0].name, "phone");
  EXPECT_EQ(reread.node_classes[0].count, 18u);
  EXPECT_DOUBLE_EQ(reread.node_classes[0].speed, 4.0);
  EXPECT_EQ(reread.node_classes[1].name, "rsu");
  EXPECT_TRUE(reread.node_classes[1].fixed);
  EXPECT_DOUBLE_EQ(reread.node_classes[1].cache_kb, 96.0);
  EXPECT_TRUE(reread.has_fixed_nodes());
  EXPECT_EQ(reread.class_of(0), 0u);
  EXPECT_EQ(reread.class_of(17), 0u);
  EXPECT_EQ(reread.class_of(18), 1u);
  EXPECT_EQ(reread.class_of(23), 1u);
}

TEST(ConfigIo, ClassCountsAloneDefineTheFleetSize) {
  // A classes-only config needs no `nodes` key: the fleet size is the
  // class-count sum, and classes land sorted by name.
  const PrecinctConfig c = core::config_from_kv(support::KvFile::parse(
      "class.phone.count = 5\n"
      "class.rsu.count = 3\n"
      "class.rsu.fixed = true\n"));
  EXPECT_EQ(c.n_nodes, 8u);
  ASSERT_EQ(c.node_classes.size(), 2u);
  EXPECT_EQ(c.node_classes[0].name, "phone");
  EXPECT_EQ(c.node_classes[1].name, "rsu");
  EXPECT_NO_THROW(c.validate());
}

TEST(ConfigIo, MalformedClassKeysThrow) {
  // Malformed class and integer keys: each is rejected with an
  // invalid_argument that names the offending key.
  for (const std::string text : {
           "class.x = 3",          // missing attribute
           "class.x.bogus = 1",    // unknown attribute
           "class.x.count = -4",   // counts are unsigned
           "class.x.count = many", // non-numeric
           "regions = -3",         // unsigned grid side
           "nodes = 20.9",         // no fractional node counts
           "nodes = -1",           // unsigned
       }) {
    const std::string key = text.substr(0, text.find(' '));
    try {
      (void)core::config_from_kv(support::KvFile::parse(text));
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(ConfigIo, UnwritableConfigsThrow) {
  {
    PrecinctConfig c;
    c.area = {{0.0, 0.0}, {800.0, 600.0}};  // non-square
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.tiles_x = 2;
    c.tiles_y = 3;  // non-square tile grid has no kv form
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.regions_x = 2;
    c.regions_y = 3;
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    channel::Partition p;
    p.a = {{0.0, 0.0}, {400.0, 800.0}};
    p.b = {{400.0, 0.0}, {800.0, 800.0}};
    c.wireless.channel.partitions.push_back(p);
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// The knob table's derived surfaces: --help and the annotated example
// ---------------------------------------------------------------------------

TEST(Knobs, HelpNamesEveryFlagWithItsDefault) {
  const PrecinctConfig defaults;
  std::istringstream help(core::knob_help());
  std::vector<std::string> lines;
  for (std::string line; std::getline(help, line);) lines.push_back(line);
  for (const core::Knob& knob : core::knobs()) {
    const std::string flag = "  " + knob.flag() + " ";
    std::string value = knob.format(defaults);
    if (value.empty()) value = "\"\"";
    const std::string def = "(default " + value + ")";
    bool found = false;
    for (const std::string& line : lines) {
      if (line.rfind(flag, 0) != 0) continue;
      found = true;
      EXPECT_NE(line.find(def), std::string::npos) << line;
    }
    EXPECT_TRUE(found) << knob.flag() << " missing from --help";
  }
}

TEST(Knobs, ExampleFileCoversEveryKnobAndLoads) {
  const std::string examples = std::string(PRECINCT_SOURCE_DIR) + "/examples";
  const std::string path = examples + "/scenario.conf.example";
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  for (const core::Knob& knob : core::knobs()) {
    const std::string key(knob.key);
    int seen = 0;
    for (std::string line : lines) {
      // `key = value` or `# key = value`, with an optional trailing comment.
      if (line.rfind("# ", 0) == 0) line.erase(0, 2);
      if (line.rfind(key + " =", 0) != 0) continue;
      ++seen;
      EXPECT_NO_THROW((void)core::config_from_kv(support::KvFile::parse(line)))
          << "example line does not parse: " << line;
    }
    EXPECT_GT(seen, 0) << key << " missing from " << path;
  }
  // The file as shipped, and every other checked-in scenario, loads and
  // validates.
  std::vector<std::string> files = {path};
  for (const std::string& dir : {examples, examples + "/packs"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".conf") {
        files.push_back(entry.path().string());
      }
    }
  }
  for (const std::string& file : files) {
    PrecinctConfig c;
    ASSERT_NO_THROW(c = core::config_from_file(file)) << file;
    EXPECT_NO_THROW(c.validate()) << file;
  }
}

}  // namespace
