#include "core/knobs.hpp"

#include <algorithm>

namespace precinct::core {

namespace {

using C = PrecinctConfig;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr KnobBound at_least(double lo) { return {lo, kInf, false, false}; }
constexpr KnobBound above(double lo) { return {lo, kInf, true, false}; }
constexpr KnobBound within(double lo, double hi) {
  return {lo, hi, false, false};
}

// Rows are grouped the way --help lists them.  A bound here is checked
// unconditionally by validate(); conditional and cross-field rules
// (speeds of a mobile fleet, beacon timing, replicas vs regions, ...)
// stay in validate.cpp and leave the row unbounded.
constexpr Knob kKnobs[] = {
    // -- topology -------------------------------------------------------------
    {"nodes", [](C& c) -> auto& { return c.n_nodes; }, at_least(1),
     "peers in the network"},
    {"range", [](C& c) -> auto& { return c.wireless.range_m; }, above(0),
     "radio range (m)"},
    // -- mobility -------------------------------------------------------------
    {"speed_min", [](C& c) -> auto& { return c.v_min; }, std::nullopt,
     "minimum node speed (m/s)"},
    {"speed_max", [](C& c) -> auto& { return c.v_max; }, std::nullopt,
     "maximum node speed (m/s)"},
    {"pause", [](C& c) -> auto& { return c.pause_s; }, std::nullopt,
     "pause between movement legs (s)"},
    {"street_spacing", [](C& c) -> auto& { return c.street_spacing_m; },
     above(0), "manhattan: meters between parallel streets"},
    {"turn_prob", [](C& c) -> auto& { return c.turn_probability; },
     within(0, 1), "manhattan: P(turn) at each intersection"},
    {"commuter_period", [](C& c) -> auto& { return c.commuter_period_s; },
     above(0), "commuter: one day/night cycle (s)"},
    {"commuter_hubs", [](C& c) -> auto& { return c.commuter_hubs; },
     at_least(1), "commuter: rotating attractor hubs"},
    // -- workload -------------------------------------------------------------
    {"items", [](C& c) -> auto& { return c.catalog.n_items; }, at_least(1),
     "data items in the catalog"},
    {"request_interval",
     [](C& c) -> auto& { return c.mean_request_interval_s; }, above(0),
     "mean seconds between requests (Poisson)"},
    {"zipf", [](C& c) -> auto& { return c.zipf_theta; }, at_least(0),
     "popularity skew (Zipf theta)"},
    {"rate_multiplier",
     [](C& c) -> auto& { return c.request_rate_multiplier; }, above(0),
     "flash crowd: request-rate multiplier"},
    {"zipf_drift", [](C& c) -> auto& { return c.zipf_drift_per_s; },
     std::nullopt, "flash crowd: Zipf theta drift per second"},
    {"zipf_drift_step", [](C& c) -> auto& { return c.zipf_drift_step_s; },
     std::nullopt, "seconds between drift re-skews"},
    {"hotspot_interval",
     [](C& c) -> auto& { return c.hotspot_rotation_interval_s; },
     std::nullopt, "rotate popularity every S seconds (0 = never)"},
    {"hotspot_shift", [](C& c) -> auto& { return c.hotspot_shift; },
     std::nullopt, "ranks each popularity rotation shifts"},
    {"workload_script", [](C& c) -> auto& { return c.workload_script; },
     std::nullopt, "file of `<t> request|update <node> <rank>` events"},
    // -- caching --------------------------------------------------------------
    {"policy", [](C& c) -> auto& { return c.cache_policy; }, std::nullopt,
     "gd-ld | gd-size | gdsf | lru | lfu"},
    {"cache", [](C& c) -> auto& { return c.cache_fraction; }, within(0, 1),
     "dynamic cache as a fraction of database bytes"},
    // -- consistency ----------------------------------------------------------
    {"updates", [](C& c) -> auto& { return c.updates_enabled; },
     std::nullopt, "enable the update workload (a consistency mode implies it)"},
    {"update_interval",
     [](C& c) -> auto& { return c.mean_update_interval_s; }, std::nullopt,
     "mean seconds between updates"},
    {"ttr_alpha", [](C& c) -> auto& { return c.ttr_alpha; }, within(0, 1),
     "TTR EWMA weight (Eq. 2)"},
    // -- retrieval & fault tolerance ------------------------------------------
    {"replicas", [](C& c) -> auto& { return c.replica_count; }, std::nullopt,
     "replica regions per key"},
    {"retries", [](C& c) -> auto& { return c.request_retries; }, at_least(0),
     "lookup retransmissions (2^k backoff) before replica fallback"},
    {"crash_rate", [](C& c) -> auto& { return c.crash_rate_per_s; },
     at_least(0), "node crashes per second"},
    {"join_rate", [](C& c) -> auto& { return c.join_rate_per_s; },
     at_least(0), "crashed-node rejoins per second"},
    {"graceful_fraction", [](C& c) -> auto& { return c.graceful_fraction; },
     within(0, 1), "fraction of departures that hand custody off"},
    {"dynamic_regions", [](C& c) -> auto& { return c.dynamic_regions; },
     std::nullopt, "runtime region merge/split"},
    {"use_beacons", [](C& c) -> auto& { return c.use_beacons; },
     std::nullopt, "GPSR over beacon-fed neighbor tables"},
    {"beacon_interval", [](C& c) -> auto& { return c.beacon_interval_s; },
     std::nullopt, "seconds between position beacons"},
    {"neighbor_lifetime",
     [](C& c) -> auto& { return c.neighbor_lifetime_s; }, std::nullopt,
     "seconds a neighbor entry outlives its last beacon"},
    // -- channel (fault injection) --------------------------------------------
    {"channel", [](C& c) -> auto& { return c.wireless.channel.model; },
     std::nullopt, "perfect | bernoulli | distance | gilbert-elliott | scripted"},
    {"loss", [](C& c) -> auto& { return c.wireless.channel.loss_p; },
     within(0, 1), "bernoulli: per-frame loss probability"},
    {"edge_start",
     [](C& c) -> auto& { return c.wireless.channel.edge_start_fraction; },
     within(0, 1), "distance: loss ramp start as a fraction of range"},
    {"edge_loss", [](C& c) -> auto& { return c.wireless.channel.edge_loss_p; },
     within(0, 1), "distance: loss probability at the range edge"},
    {"ge_enter_burst",
     [](C& c) -> auto& { return c.wireless.channel.ge_enter_burst_p; },
     within(0, 1), "gilbert-elliott: P(good -> burst) per frame"},
    {"ge_burst_frames",
     [](C& c) -> auto& { return c.wireless.channel.ge_mean_burst_frames; },
     at_least(0), "gilbert-elliott: mean burst length (frames)"},
    {"ge_loss_good",
     [](C& c) -> auto& { return c.wireless.channel.ge_loss_good; },
     within(0, 1), "gilbert-elliott: loss probability when good"},
    {"ge_loss_bad", [](C& c) -> auto& { return c.wireless.channel.ge_loss_bad; },
     within(0, 1), "gilbert-elliott: loss probability in a burst"},
    // -- correctness harness --------------------------------------------------
    {"check", [](C& c) -> auto& { return c.check; }, std::nullopt,
     "invariant audit: all, or a comma list of net,cache,custody,"
     "pending,consistency,energy"},
    {"check_stride", [](C& c) -> auto& { return c.check_stride; },
     at_least(1), "audit every N executed events"},
    // -- parallel execution ---------------------------------------------------
    {"shards", [](C& c) -> auto& { return c.shards; }, at_least(1),
     "parallel workers; > 1 on a 1x1 tile grid world-shards the run"},
    {"gateway_latency", [](C& c) -> auto& { return c.gateway_latency_s; },
     at_least(0), "tiled world: inter-tile backhaul latency (s)"},
    {"gateway_interval", [](C& c) -> auto& { return c.gateway_interval_s; },
     at_least(0), "tiled world: mean seconds between gateway requests"},
    // -- real-transport fleet (read by precinct_node / precinct_ctl) ----------
    // The fleet's whole port plan (base + domain) must stay unprivileged.
    {"transport_base_port",
     [](C& c) -> auto& { return c.transport_base_port; }, within(1024, 65000),
     "fleet: UDP port of domain 0 (domain d binds +d)"},
    {"transport_pace", [](C& c) -> auto& { return c.transport_pace; },
     std::nullopt, "fleet: asap (lockstep) | realtime"},
    {"transport_speedup", [](C& c) -> auto& { return c.transport_speedup; },
     above(0), "fleet: realtime sim seconds per wall second"},
    {"transport_status_interval",
     [](C& c) -> auto& { return c.transport_status_interval_s; },
     at_least(0), "fleet: wall seconds between status snapshots"},
    {"transport_retry", [](C& c) -> auto& { return c.transport_retry_s; },
     above(0), "fleet: wall-clock resend/NACK cadence (s)"},
    {"transport_timeout",
     [](C& c) -> auto& { return c.transport_timeout_s; }, std::nullopt,
     "fleet: per-barrier peer silence budget (s)"},
    {"transport_linger", [](C& c) -> auto& { return c.transport_linger_s; },
     at_least(0), "fleet: post-run drain window (s)"},
    // -- run control ----------------------------------------------------------
    {"warmup", [](C& c) -> auto& { return c.warmup_s; }, at_least(0),
     "warm-up before measuring (s)"},
    {"measure", [](C& c) -> auto& { return c.measure_s; }, above(0),
     "measurement window (s)"},
    {"seed", [](C& c) -> auto& { return c.seed; }, std::nullopt,
     "base RNG seed (full 64-bit)"},
};

/// Read-only use of an accessor: the accessors only hand out the field.
template <typename T>
const T& read(KnobAccessor<T> get, const C& c) {
  return get(const_cast<C&>(c));
}

std::string to_text(double v) { return format_number(v); }
std::string to_text(bool v) { return v ? "true" : "false"; }
std::string to_text(const std::string& v) { return v; }
template <std::integral T>
std::string to_text(T v) {
  return std::to_string(v);
}

/// --help placeholder for a knob's value; a bool flag takes none.
const char* metavar(double) { return " X"; }
const char* metavar(bool) { return ""; }
const char* metavar(const std::string&) { return " STR"; }
template <std::integral T>
const char* metavar(T) {
  return " N";
}

}  // namespace

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Knob::flag() const {
  std::string out = "--" + std::string(key);
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

bool Knob::is_bool() const noexcept {
  return std::holds_alternative<KnobAccessor<bool>>(field);
}

std::string Knob::format(const PrecinctConfig& c) const {
  return std::visit([&](auto get) { return to_text(read(get, c)); }, field);
}

void Knob::parse(PrecinctConfig& c, const support::KvFile& kv) const {
  const std::string name(key);
  const std::optional<std::string> value = kv.get(name);
  if (!value.has_value()) return;
  std::visit(
      [&](auto get) {
        auto& f = get(c);
        using T = std::remove_reference_t<decltype(f)>;
        if constexpr (std::is_same_v<T, double>) {
          f = kv.get_number(name, f);
        } else if constexpr (std::is_same_v<T, bool>) {
          f = kv.get_bool(name, f);
        } else if constexpr (std::is_same_v<T, std::string>) {
          f = *value;
        } else {
          f = parse_integer<T>(*value, key);
        }
      },
      field);
}

void Knob::check(const PrecinctConfig& c) const {
  if (!bound.has_value()) return;
  const double v = std::visit(
      [&](auto get) {
        using T = std::remove_cvref_t<decltype(read(get, c))>;
        if constexpr (std::is_arithmetic_v<T>) {
          return static_cast<double>(read(get, c));
        } else {
          return 0.0;  // string knobs carry no bound
        }
      },
      field);
  const KnobBound& b = *bound;
  if ((b.lo_open ? v > b.lo : v >= b.lo) && (b.hi_open ? v < b.hi : v <= b.hi)) {
    return;
  }
  const std::string range =
      b.hi == kInf ? (b.lo_open ? "> " : ">= ") + format_number(b.lo)
                   : std::string("in ") + (b.lo_open ? "(" : "[") +
                         format_number(b.lo) + ", " + format_number(b.hi) +
                         (b.hi_open ? ")" : "]");
  throw std::invalid_argument("PrecinctConfig: " + std::string(key) +
                              " must be " + range + " (got " + format(c) +
                              ")");
}

std::span<const Knob> knobs() noexcept { return kKnobs; }

const Knob* find_knob(std::string_view key) noexcept {
  for (const Knob& k : kKnobs) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

std::string knob_help() {
  const PrecinctConfig defaults;
  std::string out;
  for (const Knob& k : kKnobs) {
    std::string line = "  " + k.flag() +
                       std::visit([&](auto get) {
                         return metavar(read(get, defaults));
                       }, k.field);
    line.resize(std::max<std::size_t>(line.size() + 2, 34), ' ');
    const std::string d = k.format(defaults);
    out += line + std::string(k.help) + " (default " +
           (d.empty() ? "\"\"" : d) + ")\n";
  }
  return out;
}

}  // namespace precinct::core
