// Scenario packs (DESIGN.md §15): named workload bundles under
// examples/packs/, each a `<name>.conf` scenario plus a `<name>.golden`
// expected-metrics file.  They are the repo's one golden mechanism: nine
// packs pin the paper's own fixed-seed scenarios (retrieval schemes,
// consistency modes, churn, lossy channels) and four pin the workloads
// the paper never reached — structured mobility, heterogeneous fleets,
// flash crowds.
//
// Golden format: a comment header, then two fingerprint sections —
//
//   [full]     core::fingerprint of the pack run at its configured scale
//   [reduced]  the same under reduced_for_test() windows (what the unit
//              test suite runs, so `ctest` stays fast)
//
// The goldens pin plain runs; scenario_pack_test checks on top that the
// tiled and world-sharded executors reproduce every pack for K in
// {1,2,4}, and CI re-checks the world case at pack scale.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"

namespace precinct::core {

struct ScenarioPack {
  std::string name;
  std::string config_path;
  std::string golden_path;  ///< may not exist yet (before --write-golden)
  PrecinctConfig config;    ///< parsed and validated
};

/// Directory holding the packs, the first that exists of: the
/// PRECINCT_PACK_DIR environment variable, `examples/packs` relative to
/// the working directory (also one and two levels up, covering build
/// trees), then the source-tree path baked in at configure time.
/// Throws std::runtime_error when none resolves.
[[nodiscard]] std::string pack_dir();

/// Sorted names of every installed pack (`<name>.conf` under pack_dir()).
[[nodiscard]] std::vector<std::string> list_packs();

/// Load a named pack.  Unknown names throw std::invalid_argument listing
/// the available packs, so a typo prints the catalog instead of a bare
/// file error.
[[nodiscard]] ScenarioPack load_pack(const std::string& name);

/// Canonical reduced-scale variant pinned by the golden [reduced]
/// section: identical fleet, topology and workload, shorter warmup and
/// measurement windows.
[[nodiscard]] PrecinctConfig reduced_for_test(const PrecinctConfig& config);

/// Parsed golden file.
struct PackGolden {
  std::string full;     ///< fingerprint at configured scale
  std::string reduced;  ///< fingerprint under reduced_for_test()
};

/// Parse a golden file's text; throws std::invalid_argument when either
/// section is missing.
[[nodiscard]] PackGolden parse_golden(const std::string& text);

/// Render a golden file (the exact bytes --write-golden checks in).
[[nodiscard]] std::string render_golden(const std::string& pack_name,
                                        const PackGolden& golden);

}  // namespace precinct::core
