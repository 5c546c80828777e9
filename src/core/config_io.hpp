// Configuration file loading: map a key=value KvFile onto PrecinctConfig.
//
// The scalar keys are declared once in core/knobs.hpp, and precinct_sim
// derives its flags from them (`--a-b` sets key `a_b`); the composite
// keys are handled here.  Unknown keys are an error so typos fail
// loudly.  See `examples/scenario.conf.example` for a complete annotated
// file.
#pragma once

#include <map>
#include <string>

#include "core/config.hpp"
#include "support/kv_file.hpp"

namespace precinct::core {

/// Apply every key in `kv` on top of `base`.  Throws
/// std::invalid_argument for unknown keys or unparsable values.  The
/// result is not validated; call validate() (Scenario does).
[[nodiscard]] PrecinctConfig config_from_kv(const support::KvFile& kv,
                                            const PrecinctConfig& base = {});

/// Convenience: load a file and apply it (throws on I/O errors too).
[[nodiscard]] PrecinctConfig config_from_file(const std::string& path,
                                              const PrecinctConfig& base = {});

/// Serialize `c` back into the key schema the reader accepts.  Every key
/// is emitted (so reloading over any base reproduces `c` exactly), and
/// doubles use their shortest round-trip form, making write -> read ->
/// write a fixed point.  Throws std::invalid_argument for configurations
/// the schema cannot express (non-square area or region grid, partition
/// windows).
[[nodiscard]] std::map<std::string, std::string> config_to_kv(
    const PrecinctConfig& c);

/// config_to_kv rendered as `key = value` lines in sorted key order —
/// directly parseable by KvFile / config_from_kv.
[[nodiscard]] std::string config_to_string(const PrecinctConfig& c);

/// Write config_to_string(c) to `path`; throws std::runtime_error on I/O
/// failure.  The file is a one-command repro: `precinct_sim --config
/// <path>` replays the exact scenario.
void config_to_file(const PrecinctConfig& c, const std::string& path);

}  // namespace precinct::core
