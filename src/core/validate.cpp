#include <algorithm>
#include <stdexcept>
#include <string>

#include "channel/channel_registry.hpp"
#include "check/categories.hpp"
#include "core/config.hpp"
#include "core/knobs.hpp"
#include "core/scheme_registry.hpp"

namespace precinct::core {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("PrecinctConfig: " + what);
}
}  // namespace

void PrecinctConfig::validate() const {
  // Every scalar key's range (knobs.cpp); the rules below are the
  // composite, conditional and cross-field ones.
  for (const Knob& knob : knobs()) knob.check(*this);
  if (area.width() <= 0.0 || area.height() <= 0.0) {
    fail("area must have positive extent");
  }
  if (regions_x == 0 || regions_y == 0) fail("region grid must be >= 1x1");
  if (wireless.bandwidth_bps <= 0.0) fail("bandwidth must be > 0");
  {
    static constexpr const char* kMobilityModels[] = {
        "static",       "random-waypoint", "random-direction",
        "gauss-markov", "manhattan",       "commuter"};
    bool known = false;
    for (const char* name : kMobilityModels) known |= mobility_model == name;
    if (!known) fail("unknown mobility model '" + mobility_model + "'");
  }
  if (mobile && mobility_model != "static") {
    if (v_min <= 0.0 || v_max < v_min) fail("need 0 < v_min <= v_max");
    if (pause_s < 0.0) fail("pause must be >= 0");
    if (region_check_interval_s <= 0.0) {
      fail("region check interval must be > 0");
    }
  }
  if (mobile && mobility_model == "manhattan" &&
      street_spacing_m >= std::min(area.width(), area.height())) {
    fail("street spacing too wide for the area (need a 2x2 intersection "
         "grid)");
  }
  // Heterogeneous fleet: classes are the canonical name-sorted list with
  // contiguous id ranges, so ordering and counts must be well-formed
  // before any subsystem derives per-node attributes from them.
  if (!node_classes.empty()) {
    std::size_t total = 0;
    for (std::size_t k = 0; k < node_classes.size(); ++k) {
      const NodeClassConfig& cls = node_classes[k];
      if (cls.name.empty()) fail("node class needs a name");
      for (const char ch : cls.name) {
        const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '_';
        if (!ok) {
          fail("node class name '" + cls.name +
               "' must use only [A-Za-z0-9_]");
        }
      }
      if (k > 0 && !(node_classes[k - 1].name < cls.name)) {
        fail("node classes must be sorted by name and unique (got '" +
             node_classes[k - 1].name + "' before '" + cls.name + "')");
      }
      if (cls.count == 0) {
        fail("node class '" + cls.name + "' must have count > 0");
      }
      if (cls.cache_kb < 0.0) {
        fail("node class '" + cls.name + "' cache_kb must be >= 0");
      }
      if (cls.speed < 0.0) {
        fail("node class '" + cls.name + "' speed must be >= 0");
      }
      total += cls.count;
    }
    if (total != n_nodes) {
      fail("node class counts must sum to n_nodes (" +
           std::to_string(total) + " != " + std::to_string(n_nodes) + ")");
    }
  }
  if (catalog.min_item_bytes == 0 ||
      catalog.max_item_bytes < catalog.min_item_bytes) {
    fail("bad catalog item size range");
  }
  if (zipf_drift_per_s != 0.0 && zipf_drift_step_s <= 0.0) {
    fail("zipf drift step must be > 0 when drift is enabled");
  }
  if (updates_enabled && mean_update_interval_s <= 0.0) {
    fail("update interval must be > 0");
  }
  if (ttr_initial_s < 0.0) fail("initial TTR must be >= 0");
  if (push_retries < 0) fail("push retries must be >= 0");
  if (use_beacons) {
    if (beacon_interval_s <= 0.0) fail("beacon interval must be > 0");
    if (neighbor_lifetime_s < beacon_interval_s) {
      fail("neighbor lifetime must cover at least one beacon interval");
    }
  }
  if (region_flood_ttl < 1) fail("region flood TTL must be >= 1");
  if (network_flood_ttl < 1) fail("network flood TTL must be >= 1");
  if (max_route_hops < 1) fail("route hop budget must be >= 1");
  if (regional_timeout_s <= 0.0 || remote_timeout_s <= 0.0) {
    fail("timeouts must be > 0");
  }
  if (replica_count + 1 >
      static_cast<std::size_t>(regions_x) * regions_y) {
    fail("replica_count needs at least replica_count+1 regions");
  }
  // Channel model: the name resolves in the channel registry (same
  // fail-fast contract as the scheme names below) and scripted windows
  // do not run backwards.
  {
    const channel::ChannelConfig& ch = wireless.channel;
    if (!channel::ChannelRegistry::instance().has(ch.model)) {
      fail("unknown channel model '" + ch.model + "'");
    }
    for (const channel::Blackout& b : ch.blackouts) {
      if (b.end_s < b.start_s) fail("channel blackout window must not end before it starts");
    }
    for (const channel::Partition& w : ch.partitions) {
      if (w.end_s < w.start_s) fail("channel partition window must not end before it starts");
    }
  }
  if (dynamic_regions) {
    if (region_reconfig_interval_s <= 0.0) {
      fail("region reconfig interval must be > 0");
    }
    if (max_region_peers <= min_region_peers) {
      fail("max_region_peers must exceed min_region_peers");
    }
  }
  if (prefetch_count > catalog.n_items) {
    fail("prefetch_count cannot exceed the catalog size");
  }
  // Sharded-execution knobs (DESIGN.md §11 tiled cities, §13 world
  // sharding).  `shards` with a 1x1 tile grid selects world sharding: one
  // world cut into region-column domains with real radio traffic across
  // the cut.  Its lookahead is derived from the radio timing, so the
  // gateway knobs — which belong to the tiled-city backhaul — must be
  // quiet.
  if (tiles_x == 0 || tiles_y == 0) fail("tile grid must be >= 1x1");
  const bool tiled = static_cast<std::uint64_t>(tiles_x) * tiles_y > 1;
  if (tiled && gateway_latency_s <= 0.0) {
    fail("a tiled world needs gateway latency > 0 (it is the conservative "
         "lookahead)");
  }
  if (!tiled && shards > 1) {
    if (gateway_latency_s != 0.0) {
      fail("gateway_latency has no effect in a world-sharded run — the "
           "lookahead is derived from the radio MAC/propagation timing; "
           "set gateway_latency = 0 (or configure tiles for a tiled city)");
    }
    if (gateway_interval_s > 0.0) {
      fail("gateway traffic needs a tiled world (tiles > 1x1); a "
           "world-sharded run carries real radio frames across the cut");
    }
    if (dynamic_regions) {
      fail("dynamic_regions reconfigures the region table globally and "
           "cannot be world-sharded; run shards = 1 or a tiled world");
    }
  }
  // Real-transport knobs (DESIGN.md §14).
  if (transport_pace != "asap" && transport_pace != "realtime") {
    fail("transport_pace must be 'asap' or 'realtime'");
  }
  if (!(transport_timeout_s > transport_retry_s)) {
    fail("transport_timeout must exceed transport_retry");
  }
  // Correctness harness: category names must parse.
  if (!check.empty()) {
    try {
      (void)check::parse_categories(check);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
  // Scheme wiring: names must resolve in the registry, and the
  // combination must make sense.  The unstructured baselines search by
  // flooding, without the region infrastructure the pull-based schemes
  // poll — running them together would silently measure nonsense.
  if (!retrieval_scheme.empty() &&
      !SchemeRegistry::instance().has_retrieval(retrieval_scheme)) {
    fail("unknown retrieval scheme '" + retrieval_scheme + "'");
  }
  if (!consistency_scheme.empty() &&
      !SchemeRegistry::instance().has_consistency(consistency_scheme)) {
    fail("unknown consistency scheme '" + consistency_scheme + "'");
  }
  const bool baseline_retrieval =
      retrieval_scheme.empty() && (retrieval == RetrievalKind::kFlooding ||
                                   retrieval == RetrievalKind::kExpandingRing);
  const bool polling_consistency =
      consistency_scheme.empty() &&
      (consistency == consistency::Mode::kPullEveryTime ||
       consistency == consistency::Mode::kPushAdaptivePull);
  if (baseline_retrieval && polling_consistency) {
    fail(std::string("the '") + to_string(retrieval) +
         "' baseline has no region-based lookup, so the '" +
         consistency::to_string(consistency) +
         "' scheme's home-region polling is meaningless; use consistency = "
         "none or plain-push with baseline retrieval");
  }
}

}  // namespace precinct::core
