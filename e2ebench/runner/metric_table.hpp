// Every metric the runner reports, with its unit.  BENCHMARK.json lists
// the same names; run.py refuses a result whose names differ from it.
#pragma once

#include <array>
#include <string_view>

namespace e2ebench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Reported by timed runs (--trace 0).
inline constexpr std::array kEndToEnd = {
    MetricSpec{"wall_s", "s"},
    MetricSpec{"sim_s_per_wall_s", "s/s"},
    MetricSpec{"setup_s", "s"},
    MetricSpec{"peak_rss_mb", "MB"},
};

/// Reported by the traced run (--trace 1), grouped by layer (the prefix).
/// A layer a workload does not exercise reports 0.
inline constexpr std::array kPerLayer = {
    MetricSpec{"sim.events", "count"},
    MetricSpec{"sim.ns_per_event", "ns"},
    MetricSpec{"sim.slice_ms_p50", "ms"},
    MetricSpec{"sim.slice_ms_p99", "ms"},
    MetricSpec{"mobility.position_calls", "count"},
    MetricSpec{"mobility.calls_per_event", "ratio"},
    MetricSpec{"mobility.self_s", "s"},
    MetricSpec{"mobility.share", "ratio"},
    MetricSpec{"net.neighbor_cold_ns", "ns"},
    MetricSpec{"net.neighbor_warm_ns", "ns"},
    MetricSpec{"net.neighbor_degree", "count"},
    MetricSpec{"net.frames_sent", "count"},
    MetricSpec{"net.deliveries_per_send", "ratio"},
    MetricSpec{"net.frames_lost", "count"},
    MetricSpec{"net.frame_pool_capacity", "count"},
    MetricSpec{"channel.frames_dropped", "count"},
    MetricSpec{"channel.drop_ratio", "ratio"},
    MetricSpec{"routing.gpsr_next_hop_ns", "ns"},
    MetricSpec{"routing.flood_deliveries", "count"},
    MetricSpec{"routing.drops_void", "count"},
    MetricSpec{"routing.drops_ttl", "count"},
    MetricSpec{"cache.find_ns", "ns"},
    MetricSpec{"cache.resident_entries", "count"},
    MetricSpec{"cache.fill_ratio", "ratio"},
    MetricSpec{"cache.hit_ratio", "ratio"},
    MetricSpec{"cache.byte_hit_ratio", "ratio"},
    MetricSpec{"core.requests_issued", "count"},
    MetricSpec{"core.success_ratio", "ratio"},
    MetricSpec{"core.messages_per_request", "ratio"},
    MetricSpec{"core.consistency_messages", "count"},
    MetricSpec{"core.retransmissions", "count"},
    MetricSpec{"core.duplicates_suppressed", "count"},
    MetricSpec{"core.custody_handoffs", "count"},
    MetricSpec{"exec.windows", "count"},
    MetricSpec{"exec.us_per_window", "us"},
    MetricSpec{"exec.frames_posted", "count"},
    MetricSpec{"exec.deltas_posted", "count"},
    MetricSpec{"exec.messages_merged", "count"},
    MetricSpec{"exec.replication_tax", "ratio"},
    MetricSpec{"exec.parallel_speedup", "ratio"},
    MetricSpec{"transport.us_per_window", "us"},
    MetricSpec{"transport.datagrams_per_window", "ratio"},
    MetricSpec{"transport.datagram_bytes_sent", "bytes"},
    MetricSpec{"transport.retransmits", "count"},
    MetricSpec{"transport.nacks_sent", "count"},
    MetricSpec{"transport.duplicates_dropped", "count"},
    MetricSpec{"trace.overhead_ratio", "ratio"},
};

}  // namespace e2ebench
