// The scalar configuration keys, declared once.
//
// Each row of knobs() names one `key = value` config key, the
// PrecinctConfig field it sets, an optional range and one help line.
// Everything per-key is derived from that table: config_from_kv's typed
// parse, config_to_kv's output, validate()'s unconditional range checks,
// and precinct_sim's `--a-b` flag (for key `a_b`) with its --help line.
// Defaults live only in the member initializers of config.hpp.
//
// Composite keys (area, regions, tiles, mobility, consistency,
// retrieval, blackout, class.*) and cross-field rules stay hand-written
// in config_io.cpp and validate.cpp.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/config.hpp"
#include "support/kv_file.hpp"

namespace precinct::core {

template <typename T>
using KnobAccessor = T& (*)(PrecinctConfig&);

/// The field a knob sets; the alternative held names its value type.
/// `unsigned long` and `unsigned long long` together cover std::size_t
/// and std::uint64_t on every common ABI without naming a type twice.
using KnobField =
    std::variant<KnobAccessor<unsigned long>, KnobAccessor<unsigned long long>,
                 KnobAccessor<std::uint32_t>, KnobAccessor<int>,
                 KnobAccessor<double>, KnobAccessor<bool>,
                 KnobAccessor<std::string>>;

/// Range a numeric knob must lie in; each end is closed unless marked
/// open, and an infinite end is unbounded.
struct KnobBound {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};

struct Knob {
  std::string_view key;
  KnobField field;
  std::optional<KnobBound> bound;
  std::string_view help;

  /// Command-line spelling: `--a-b` for key `a_b`.
  [[nodiscard]] std::string flag() const;
  /// Bool knobs take no flag value: the bare flag means true.
  [[nodiscard]] bool is_bool() const noexcept;
  /// The field's value in config-file form (doubles in shortest
  /// round-trip form).
  [[nodiscard]] std::string format(const PrecinctConfig& c) const;
  /// Parse this knob's value from `kv` into `c`; throws
  /// std::invalid_argument naming the key on a malformed value.
  void parse(PrecinctConfig& c, const support::KvFile& kv) const;
  /// Throws std::invalid_argument ("PrecinctConfig: <key> must be ...")
  /// when the field is outside `bound` (NaN never is inside).
  void check(const PrecinctConfig& c) const;
};

/// Every scalar key, grouped by subsystem.
[[nodiscard]] std::span<const Knob> knobs() noexcept;

/// The row for `key`, or nullptr when it is not a scalar key.
[[nodiscard]] const Knob* find_knob(std::string_view key) noexcept;

/// One `--flag VALUE  help (default D)` line per knob, in table order;
/// D is read from a default-constructed PrecinctConfig.
[[nodiscard]] std::string knob_help();

/// Shortest round-trip decimal form: re-parsing with strtod recovers the
/// exact double, so write -> read -> write is a fixed point.
[[nodiscard]] std::string format_number(double v);

/// Exact integer parse into the field's own type: no fraction, no sign
/// on an unsigned type, no overflow.  Throws std::invalid_argument
/// naming `key`.
template <std::integral T>
[[nodiscard]] T parse_integer(std::string_view value, std::string_view key) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(
        "config: key '" + std::string(key) + "' is not " +
        (std::is_signed_v<T> ? "an integer" : "an unsigned integer") +
        ": '" + std::string(value) + "'");
  }
  return out;
}

}  // namespace precinct::core
