// The traced run: the Scenario stack rebuilt by hand from the same public
// constructors scenario.cpp uses, so the benchmark can observe each layer
// from outside without touching the program.
//
//  - CountingMobility wraps the mobility model and counts (and, on a
//    fixed 1-in-64 sample, times) every trajectory query.
//  - A post-event hook counts simulator events.
//  - The run advances with run_until in fixed sim-time slices; each
//    slice's wall time is recorded.
//  - Between slices, probes time public layer calls on the live stack:
//    WirelessNet::neighbors (cold, then warm), a benchmark-owned
//    routing::Gpsr::next_hop and CacheStore::find.  Probe time is kept
//    apart, and the decorator does not count the queries probes cause.
//
// Everything here is observe-only: the traced run's fingerprint must
// equal the untraced Scenario's, and the runner fails the run if not.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "mobility/mobility_model.hpp"
#include "net/wireless_net.hpp"
#include "routing/gpsr.hpp"
#include "sim/simulator.hpp"
#include "workload/data_catalog.hpp"

namespace e2ebench {

/// Forwarding MobilityModel decorator that counts position_at/speed_at
/// calls and times every 64th call.  Counting pauses while probes run.
class CountingMobility final : public precinct::mobility::MobilityModel {
 public:
  explicit CountingMobility(
      std::unique_ptr<precinct::mobility::MobilityModel> inner);

  [[nodiscard]] precinct::geo::Point position_at(std::size_t node,
                                                 double t) override;
  [[nodiscard]] double speed_at(std::size_t node, double t) override;
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return inner_->node_count();
  }
  [[nodiscard]] bool time_invariant() const noexcept override {
    return inner_->time_invariant();
  }

  void set_paused(bool paused) noexcept { paused_ = paused; }
  [[nodiscard]] std::uint64_t position_calls() const noexcept {
    return position_calls_;
  }
  [[nodiscard]] std::uint64_t speed_calls() const noexcept {
    return speed_calls_;
  }
  /// Estimated time spent inside the wrapped model: the sampled calls'
  /// time, less the timer's own cost, scaled to all counted calls.
  [[nodiscard]] double self_s() const noexcept;

 private:
  static constexpr std::uint64_t kSampleMask = 63;
  [[nodiscard]] bool sample_next() noexcept {
    return (++calls_ & kSampleMask) == 0;
  }

  std::unique_ptr<precinct::mobility::MobilityModel> inner_;
  bool paused_ = false;
  std::uint64_t calls_ = 0;
  std::uint64_t position_calls_ = 0;
  std::uint64_t speed_calls_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t sampled_ticks_ = 0;
  double timer_overhead_ticks_ = 0.0;  ///< median back-to-back read pair
  double ns_per_tick_ = 1.0;
};

/// Everything the traced run measured.  Counters of the radio, channel
/// and simulator cover the whole run; `metrics` is the measurement
/// window, exactly as Scenario::run() returns it.
struct TraceReport {
  std::string fingerprint;
  precinct::core::Metrics metrics;
  std::uint64_t events = 0;          ///< counted by the post-event hook
  double run_s = 0.0;                ///< sum of slice wall times
  double probe_s = 0.0;              ///< time spent in probes
  std::vector<double> slice_ms;
  std::uint64_t position_calls = 0;
  std::uint64_t speed_calls = 0;
  double mobility_self_s = 0.0;
  std::vector<double> neighbor_cold_ns;
  std::vector<double> neighbor_warm_ns;
  std::vector<double> neighbor_degree;
  std::vector<double> gpsr_next_hop_ns;
  std::vector<double> cache_find_ns;
  std::uint64_t frames_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t flood_deliveries = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frame_pool_capacity = 0;
  std::uint64_t drops_void = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t resident_entries = 0;
  double fill_ratio = 0.0;
};

class TracedStack {
 public:
  /// Slices per run; 1000 leaves ten slices beyond the 99th percentile.
  static constexpr std::size_t kSlices = 1000;
  /// Nodes probed at each slice boundary.
  static constexpr std::size_t kProbeNodes = 16;

  explicit TracedStack(const precinct::core::PrecinctConfig& config);
  ~TracedStack();
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  /// Warm-up + measurement in slices, probing between them.  One-shot.
  [[nodiscard]] TraceReport run();

 private:
  void run_slices(double from, double to, std::size_t n, TraceReport& r);
  void probe_layers(TraceReport& r);

  // Declaration order mirrors core::Scenario (the simulator outlives the
  // radio's frame pool users).
  precinct::core::PrecinctConfig config_;
  precinct::sim::Simulator sim_;
  precinct::workload::DataCatalog catalog_;
  std::unique_ptr<CountingMobility> mobility_;
  std::unique_ptr<precinct::net::WirelessNet> net_;
  std::unique_ptr<precinct::core::PrecinctEngine> engine_;
  std::unique_ptr<precinct::routing::Gpsr> gpsr_;
  std::vector<precinct::net::NodeId> scratch_;
  bool ran_ = false;
};

}  // namespace e2ebench
