// Minimal key=value configuration file parsing (for precinct_sim's
// --config and for experiment scripts).
//
// Format: one `key = value` per line; `#` starts a comment; blank lines
// and surrounding whitespace ignored.  Keys are free-form strings; value
// interpretation is the caller's job (helpers for the common types
// below).  Duplicate keys keep the *last* occurrence, so files can layer
// overrides naturally.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>

namespace precinct::support {

class KvFile {
 public:
  /// Parse text; throws std::invalid_argument (with a line number) on a
  /// malformed line.
  static KvFile parse(const std::string& text);

  /// Read and parse a file; throws std::runtime_error if unreadable.
  static KvFile load(const std::string& path);

  /// Set (or replace) one key, as a later line of a file would.
  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters: return `fallback` when absent; throw
  /// std::invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_number(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::map<std::string, std::string>& values()
      const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace precinct::support
