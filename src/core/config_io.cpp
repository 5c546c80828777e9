#include "core/config_io.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "core/knobs.hpp"

namespace precinct::core {

namespace {

/// Parse the `blackout` value: `node:start:end` windows joined by `;`.
std::vector<channel::Blackout> parse_blackouts(const std::string& spec) {
  std::vector<channel::Blackout> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = std::min(spec.find(';', pos), spec.size());
    const std::string window = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (window.empty()) continue;
    const std::size_t c1 = window.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : window.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw std::invalid_argument(
          "config: blackout window '" + window +
          "' must be node:start:end (';'-separated list)");
    }
    try {
      channel::Blackout b;
      b.node = static_cast<std::uint32_t>(std::stoul(window.substr(0, c1)));
      b.start_s = std::stod(window.substr(c1 + 1, c2 - c1 - 1));
      b.end_s = std::stod(window.substr(c2 + 1));
      out.push_back(b);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("config: blackout window '" + window +
                                  "' has a non-numeric field");
    }
  }
  return out;
}

/// Built-in names map onto the enum; anything else is kept as a registry
/// name for validate()/SchemeRegistry to resolve.
void set_retrieval(PrecinctConfig& c, const std::string& name) {
  c.retrieval_scheme.clear();
  if (name == "precinct") {
    c.retrieval = RetrievalKind::kPrecinct;
  } else if (name == "flooding") {
    c.retrieval = RetrievalKind::kFlooding;
  } else if (name == "expanding-ring") {
    c.retrieval = RetrievalKind::kExpandingRing;
  } else {
    c.retrieval_scheme = name;
  }
}

void set_consistency(PrecinctConfig& c, const std::string& name) {
  c.consistency_scheme.clear();
  try {
    c.consistency = consistency::mode_from_string(name);
  } catch (const std::invalid_argument&) {
    c.consistency_scheme = name;  // externally registered scheme
  }
  if (c.consistency != consistency::Mode::kNone ||
      !c.consistency_scheme.empty()) {
    c.updates_enabled = true;
  }
}

/// Apply one `class.<name>.<attr>` key to the heterogeneous-fleet list.
/// KvFile iterates keys sorted, and validate() restricts class names to
/// [A-Za-z0-9_] (every allowed character orders after '.'), so appending
/// classes in key order yields the canonical name-sorted list.
void apply_class_key(PrecinctConfig& c, const std::string& key,
                     const std::string& value, const support::KvFile& kv) {
  const std::size_t name_start = std::string("class.").size();
  const std::size_t attr_dot = key.rfind('.');
  if (attr_dot == std::string::npos || attr_dot <= name_start) {
    throw std::invalid_argument(
        "config: class key '" + key +
        "' must be class.<name>.<count|cache_kb|speed|fixed>");
  }
  const std::string name = key.substr(name_start, attr_dot - name_start);
  const std::string attr = key.substr(attr_dot + 1);
  NodeClassConfig* cls = nullptr;
  for (NodeClassConfig& existing : c.node_classes) {
    if (existing.name == name) cls = &existing;
  }
  if (cls == nullptr) {
    NodeClassConfig fresh;
    fresh.name = name;
    c.node_classes.push_back(std::move(fresh));
    cls = &c.node_classes.back();
  }
  if (attr == "count") {
    cls->count = parse_integer<std::size_t>(value, key);
  } else if (attr == "cache_kb") {
    cls->cache_kb = kv.get_number(key, 0.0);
  } else if (attr == "speed") {
    cls->speed = kv.get_number(key, 0.0);
  } else if (attr == "fixed") {
    cls->fixed = kv.get_bool(key, false);
  } else {
    throw std::invalid_argument(
        "config: class key '" + key +
        "' must be class.<name>.<count|cache_kb|speed|fixed>");
  }
}

/// Composite keys: each sets more than one field, or more than a plain
/// copy of its value.  Returns false when `key` is not one of them.
bool apply_composite(PrecinctConfig& c, const std::string& key,
                     const std::string& value, const support::KvFile& kv) {
  if (key == "area") {
    const double side = kv.get_number(key, c.area.width());
    c.area = {{0.0, 0.0}, {side, side}};
  } else if (key == "regions") {
    c.regions_x = c.regions_y = parse_integer<std::uint32_t>(value, key);
  } else if (key == "tiles") {
    c.tiles_x = c.tiles_y = parse_integer<std::uint32_t>(value, key);
  } else if (key == "mobility") {
    c.mobility_model = value;
    c.mobile = value != "static";
  } else if (key == "consistency") {
    set_consistency(c, value);
  } else if (key == "retrieval") {
    set_retrieval(c, value);
  } else if (key == "blackout") {
    c.wireless.channel.blackouts = parse_blackouts(value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::size_t PrecinctConfig::class_of(std::size_t node) const noexcept {
  std::size_t offset = 0;
  for (std::size_t k = 0; k < node_classes.size(); ++k) {
    offset += node_classes[k].count;
    if (node < offset) return k;
  }
  return node_classes.empty() ? 0 : node_classes.size() - 1;
}

bool PrecinctConfig::has_fixed_nodes() const noexcept {
  for (const NodeClassConfig& cls : node_classes) {
    if (cls.fixed) return true;
  }
  return false;
}

PrecinctConfig::PrecinctConfig() = default;
PrecinctConfig::PrecinctConfig(const PrecinctConfig&) = default;
PrecinctConfig::PrecinctConfig(PrecinctConfig&&) noexcept = default;
PrecinctConfig& PrecinctConfig::operator=(const PrecinctConfig&) = default;
PrecinctConfig& PrecinctConfig::operator=(PrecinctConfig&&) noexcept = default;
PrecinctConfig::~PrecinctConfig() = default;

PrecinctConfig config_from_kv(const support::KvFile& kv,
                              const PrecinctConfig& base) {
  PrecinctConfig c = base;
  bool saw_class = false;
  for (const auto& [key, value] : kv.values()) {
    if (key.rfind("class.", 0) == 0) {
      if (!saw_class) {
        // The first class key replaces any fleet inherited from `base`.
        c.node_classes.clear();
        saw_class = true;
      }
      apply_class_key(c, key, value, kv);
    } else if (const Knob* knob = find_knob(key)) {
      knob->parse(c, kv);
    } else if (!apply_composite(c, key, value, kv)) {
      throw std::invalid_argument("config: unknown key '" + key + "'");
    }
  }
  if (saw_class && !kv.has("nodes")) {
    // Classes alone define the fleet size; an explicit `nodes` key must
    // instead agree with the class counts (validate() checks the sum).
    std::size_t total = 0;
    for (const NodeClassConfig& cls : c.node_classes) total += cls.count;
    c.n_nodes = total;
  }
  return c;
}

PrecinctConfig config_from_file(const std::string& path,
                                const PrecinctConfig& base) {
  return config_from_kv(support::KvFile::load(path), base);
}

namespace {

[[noreturn]] void fail_unwritable(const std::string& what) {
  throw std::invalid_argument("config: not writable: " + what);
}

std::string format_blackouts(const std::vector<channel::Blackout>& windows) {
  std::string out;
  for (const channel::Blackout& b : windows) {
    if (!out.empty()) out += ';';
    out += std::to_string(b.node) + ':' + format_number(b.start_s) + ':' +
           format_number(b.end_s);
  }
  return out;
}

}  // namespace

std::map<std::string, std::string> config_to_kv(const PrecinctConfig& c) {
  // Only configurations expressible in the key schema can be written
  // back; anything the reader cannot reconstruct is an error here rather
  // than a silent lossy save.
  if (c.area.min.x != 0.0 || c.area.min.y != 0.0 ||
      c.area.width() != c.area.height()) {
    fail_unwritable("area must be a square anchored at the origin");
  }
  if (c.regions_x != c.regions_y) {
    fail_unwritable("region grid must be square (regions_x == regions_y)");
  }
  if (!c.wireless.channel.partitions.empty()) {
    fail_unwritable("partition windows have no config key");
  }
  if (c.tiles_x != c.tiles_y) {
    fail_unwritable("tile grid must be square (tiles_x == tiles_y)");
  }
  std::map<std::string, std::string> kv;
  for (const Knob& knob : knobs()) {
    // Only string knobs can render empty (no check, no workload script);
    // those keys are left out, as reading them back changes nothing.
    std::string value = knob.format(c);
    if (!value.empty()) kv.emplace(knob.key, std::move(value));
  }
  kv["area"] = format_number(c.area.width());
  kv["regions"] = std::to_string(c.regions_x);
  kv["tiles"] = std::to_string(c.tiles_x);
  kv["mobility"] = c.mobile ? c.mobility_model : "static";
  // Alphabetical replay order puts `consistency` before `updates`, so the
  // explicit updates key wins over set_consistency's implied enable.
  kv["consistency"] = c.consistency_scheme.empty()
                          ? consistency::to_string(c.consistency)
                          : c.consistency_scheme;
  kv["retrieval"] = c.retrieval_scheme.empty() ? to_string(c.retrieval)
                                               : c.retrieval_scheme;
  if (!c.wireless.channel.blackouts.empty()) {
    kv["blackout"] = format_blackouts(c.wireless.channel.blackouts);
  }
  for (const NodeClassConfig& cls : c.node_classes) {
    const std::string prefix = "class." + cls.name + ".";
    kv[prefix + "count"] = std::to_string(cls.count);
    kv[prefix + "cache_kb"] = format_number(cls.cache_kb);
    kv[prefix + "speed"] = format_number(cls.speed);
    kv[prefix + "fixed"] = cls.fixed ? "true" : "false";
  }
  return kv;
}

std::string config_to_string(const PrecinctConfig& c) {
  std::string out;
  for (const auto& [key, value] : config_to_kv(c)) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

void config_to_file(const PrecinctConfig& c, const std::string& path) {
  const std::string text = config_to_string(c);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("config: cannot write '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    throw std::runtime_error("config: short write to '" + path + "'");
  }
}

}  // namespace precinct::core
