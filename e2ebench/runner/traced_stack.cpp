#include "traced_stack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "geo/region_table.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "net/packet.hpp"
#include "support/rng.hpp"

namespace e2ebench {

namespace pc = precinct::core;
namespace pm = precinct::mobility;
namespace pn = precinct::net;
namespace ps = precinct::support;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Mobility calls cost nanoseconds, so the decorator samples them with the
// cheapest timer available: the time-stamp counter on x86, the steady
// clock elsewhere.
#if defined(__x86_64__) || defined(__i386__)
std::uint64_t ticks() { return __rdtsc(); }
#else
std::uint64_t ticks() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
#endif

/// Median cost of two back-to-back tick reads.
double timer_pair_ticks() {
  std::vector<std::uint64_t> pairs(2001);
  for (std::uint64_t& p : pairs) {
    const std::uint64_t a = ticks();
    p = ticks() - a;
  }
  std::nth_element(pairs.begin(), pairs.begin() + 1000, pairs.end());
  return static_cast<double>(pairs[1000]);
}

/// Nanoseconds per tick, measured against the steady clock over ~20 ms.
double ns_per_tick() {
  const Clock::time_point a = Clock::now();
  const std::uint64_t t0 = ticks();
  while (ns_between(a, Clock::now()) < 2e7) {
  }
  const std::uint64_t t1 = ticks();
  return ns_between(a, Clock::now()) / static_cast<double>(t1 - t0);
}

/// The mobility model core::Scenario builds for a homogeneous fleet of
/// `config` (random-waypoint or static); throws for other models.
std::unique_ptr<pm::MobilityModel> make_scenario_mobility(
    const pc::PrecinctConfig& config) {
  // Same seed salt and constructors as core::Scenario's make_mobility.
  const std::uint64_t seed = ps::hash_combine(config.seed, 0x0b17);
  if (!config.node_classes.empty()) {
    throw std::invalid_argument("traced stack: node classes unsupported");
  }
  if (!config.mobile || config.mobility_model == "static") {
    return std::make_unique<pm::StaticPlacement>(
        pm::StaticPlacement::uniform(config.n_nodes, config.area, seed));
  }
  if (config.mobility_model == "random-waypoint") {
    pm::RandomWaypointConfig rwp;
    rwp.area = config.area;
    rwp.v_min = config.v_min;
    rwp.v_max = config.v_max;
    rwp.pause_s = config.pause_s;
    return std::make_unique<pm::RandomWaypoint>(config.n_nodes, rwp, seed);
  }
  throw std::invalid_argument("traced stack: unsupported mobility model '" +
                              config.mobility_model + "'");
}

}  // namespace

CountingMobility::CountingMobility(std::unique_ptr<pm::MobilityModel> inner)
    : inner_(std::move(inner)),
      timer_overhead_ticks_(timer_pair_ticks()),
      ns_per_tick_(ns_per_tick()) {}

precinct::geo::Point CountingMobility::position_at(std::size_t node,
                                                   double t) {
  if (paused_) return inner_->position_at(node, t);
  ++position_calls_;
  if (!sample_next()) return inner_->position_at(node, t);
  const std::uint64_t a = ticks();
  const precinct::geo::Point p = inner_->position_at(node, t);
  sampled_ticks_ += ticks() - a;
  ++sampled_;
  return p;
}

double CountingMobility::speed_at(std::size_t node, double t) {
  if (paused_) return inner_->speed_at(node, t);
  ++speed_calls_;
  if (!sample_next()) return inner_->speed_at(node, t);
  const std::uint64_t a = ticks();
  const double v = inner_->speed_at(node, t);
  sampled_ticks_ += ticks() - a;
  ++sampled_;
  return v;
}

double CountingMobility::self_s() const noexcept {
  if (sampled_ == 0) return 0.0;
  const double per_call_ticks = std::max(
      0.0, static_cast<double>(sampled_ticks_) / static_cast<double>(sampled_) -
               timer_overhead_ticks_);
  return per_call_ticks * ns_per_tick_ * static_cast<double>(calls_) * 1e-9;
}

TracedStack::TracedStack(const pc::PrecinctConfig& config)
    : config_((config.validate(), config)),
      catalog_(config.catalog, ps::hash_combine(config.seed, 0xCA7A)),
      mobility_(
          std::make_unique<CountingMobility>(make_scenario_mobility(config))) {
  pn::WirelessConfig wireless = config.wireless;
  wireless.area = config.area;
  wireless.max_node_speed_mps =
      std::max(wireless.max_node_speed_mps, 1.25 * config.v_max);
  net_ = std::make_unique<pn::WirelessNet>(
      sim_, *mobility_, wireless, config.energy_model,
      ps::hash_combine(config.seed, 0x2ad0));
  engine_ = std::make_unique<pc::PrecinctEngine>(
      config, sim_, *net_,
      precinct::geo::RegionTable::grid(config.area, config.regions_x,
                                       config.regions_y),
      catalog_);
  gpsr_ = std::make_unique<precinct::routing::Gpsr>(*net_);
}

TracedStack::~TracedStack() = default;

TraceReport TracedStack::run() {
  if (ran_) throw std::logic_error("TracedStack::run: already ran");
  ran_ = true;
  TraceReport r;
  sim_.set_post_event_hook([&r] { ++r.events; });

  // Cut warm-up and measurement into slices of about equal length; the
  // warm-up boundary is always a slice boundary, as start_measurement()
  // must run exactly there.
  const double total = config_.warmup_s + config_.measure_s;
  const auto slices_for = [&](double span) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(span / total * kSlices)));
  };
  engine_->initialize();
  run_slices(0.0, config_.warmup_s, slices_for(config_.warmup_s), r);
  engine_->start_measurement();
  run_slices(config_.warmup_s, config_.end_time_s(),
             slices_for(config_.measure_s), r);
  r.metrics = engine_->finalize();
  sim_.set_post_event_hook({});
  if (r.events != sim_.events_executed()) {
    throw std::runtime_error("traced run: post-event hook missed events");
  }
  r.fingerprint = pc::fingerprint(r.metrics);

  r.position_calls = mobility_->position_calls();
  r.speed_calls = mobility_->speed_calls();
  r.mobility_self_s = mobility_->self_s();

  const pn::MessageStats& stats = net_->stats();
  r.frames_sent = stats.total_sends();
  for (std::size_t k = 0; k < pn::kPacketKindCount; ++k) {
    r.deliveries += stats.deliveries(static_cast<pn::PacketKind>(k));
  }
  for (const pn::PacketKind k :
       {pn::PacketKind::kRequest, pn::PacketKind::kInvalidation,
        pn::PacketKind::kRegionUpdate}) {
    r.flood_deliveries += stats.deliveries(k);
  }
  r.frames_lost = net_->frames_lost();
  r.frames_dropped = net_->frames_dropped_by_channel();
  r.frame_pool_capacity = net_->frame_pool().capacity();
  r.drops_void = r.metrics.routing.drops_void;
  r.drops_ttl = r.metrics.routing.drops_ttl;

  std::uint64_t used = 0;
  std::uint64_t capacity = 0;
  for (pn::NodeId n = 0; n < config_.n_nodes; ++n) {
    const precinct::cache::CacheStore& cache = engine_->cache_of(n);
    r.resident_entries += cache.entry_count();
    used += cache.used_bytes();
    capacity += cache.capacity_bytes();
  }
  r.fill_ratio = capacity > 0 ? static_cast<double>(used) /
                                    static_cast<double>(capacity)
                              : 0.0;
  return r;
}

void TracedStack::run_slices(double from, double to, std::size_t n,
                             TraceReport& r) {
  for (std::size_t i = 1; i <= n; ++i) {
    const double until =
        i == n ? to : from + (to - from) * static_cast<double>(i) /
                                 static_cast<double>(n);
    const Clock::time_point a = Clock::now();
    sim_.run_until(until);
    const double ms = ns_between(a, Clock::now()) * 1e-6;
    r.slice_ms.push_back(ms);
    r.run_s += ms * 1e-3;
    const Clock::time_point p = Clock::now();
    probe_layers(r);
    r.probe_s += ns_between(p, Clock::now()) * 1e-9;
  }
}

void TracedStack::probe_layers(TraceReport& r) {
  mobility_->set_paused(true);
  const std::vector<precinct::geo::Region>& regions =
      engine_->region_table().regions();
  const std::size_t n_nodes = config_.n_nodes;
  for (std::size_t i = 0; i < kProbeNodes; ++i) {
    const pn::NodeId node = static_cast<pn::NodeId>(i * n_nodes / kProbeNodes);
    if (!net_->is_alive(node)) continue;

    // The first query at a new sim time computes the list (and may
    // rebuild the grid); the repeat is served from the neighbor cache.
    Clock::time_point a = Clock::now();
    net_->neighbors(node, scratch_);
    Clock::time_point b = Clock::now();
    r.neighbor_cold_ns.push_back(ns_between(a, b));
    r.neighbor_degree.push_back(static_cast<double>(scratch_.size()));
    a = Clock::now();
    net_->neighbors(node, scratch_);
    b = Clock::now();
    r.neighbor_warm_ns.push_back(ns_between(a, b));

    pn::Packet packet;
    packet.dest_location = regions[i % regions.size()].center;
    a = Clock::now();
    (void)gpsr_->next_hop(node, packet);
    b = Clock::now();
    r.gpsr_next_hop_ns.push_back(ns_between(a, b));

    const precinct::cache::CacheStore& cache = engine_->cache_of(node);
    for (std::size_t rank = 0; rank < 4; ++rank) {
      const precinct::geo::Key key = catalog_.key_of(rank);
      a = Clock::now();
      (void)cache.find(key);
      b = Clock::now();
      r.cache_find_ns.push_back(ns_between(a, b));
    }
  }
  mobility_->set_paused(false);
}

}  // namespace e2ebench
