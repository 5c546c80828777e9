// precinct_sim end to end: a config's execution mode reaches the
// executor it names.  A `tiles` grid runs the tiled executor (DESIGN.md
// §11), so its --fingerprint is the sharded rendering of the tile world,
// not the plain run of one tile.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/config_io.hpp"
#include "core/sharded_scenario.hpp"

namespace {

using namespace precinct;

/// stdout of `precinct_sim ARGS`; the run must exit 0.
std::string run_sim(const std::string& args) {
  const std::string command = std::string(PRECINCT_SIM_BINARY) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    out.append(buffer.data(), n);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

std::string write_config(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

TEST(PrecinctSim, TiledConfigRunsTheTileWorld) {
  const std::string scenario =
      "nodes = 12\narea = 600\nregions = 2\nitems = 50\nwarmup = 5\n"
      "measure = 20\ngateway_interval = 3\ngateway_latency = 0.25\n";
  const std::string tiled =
      write_config("precinct_sim_tiled.conf", scenario + "tiles = 2\n");
  const std::string flat =
      write_config("precinct_sim_flat.conf", scenario + "tiles = 1\n");

  const std::string fingerprint = run_sim("--config " + tiled + " --fingerprint");
  EXPECT_NE(fingerprint, run_sim("--config " + flat + " --fingerprint"));
  EXPECT_EQ(fingerprint,
            core::sharded_fingerprint(
                core::run_sharded_scenario(core::config_from_file(tiled))));
}

}  // namespace
