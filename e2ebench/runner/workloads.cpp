#include "workloads.hpp"

#include "core/config_io.hpp"
#include "support/kv_file.hpp"

namespace e2ebench {

namespace pc = precinct::core;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"mobile-320", Kind::kPlain,
       "mobility, neighbor queries and consistency traffic: 320 moving "
       "nodes with updates and push-adaptive-pull",
       "nodes = 320\n"
       "area = 2400\n"
       "regions = 4\n"
       "mobility = random-waypoint\n"
       "speed_max = 6\n"
       "updates = true\n"
       "consistency = push-adaptive-pull\n"
       "warmup = 150\n"
       "measure = 900\n"},
      {"static-lossy-320", Kind::kPlain,
       "flood dedup, cache lookups, channel drops and retries with "
       "mobility idle: static read-only nodes over a 5% lossy channel",
       "nodes = 320\n"
       "area = 2400\n"
       "regions = 4\n"
       "mobility = static\n"
       "request_interval = 3\n"
       "channel = bernoulli\n"
       "loss = 0.05\n"
       "retries = 2\n"
       "warmup = 150\n"
       "measure = 900\n"},
      {"world-1600-k4", Kind::kWorld,
       "executor windows and per-domain replication: one 1600-node world "
       "cut into 8 region columns, run on 4 shards",
       "nodes = 1600\n"
       "area = 5367\n"
       "regions = 8\n"
       "shards = 4\n"
       "warmup = 20\n"
       "measure = 60\n"},
      {"fleet-4", Kind::kFleet,
       "the UDP transport: four in-process daemons exchanging frames and "
       "barriers over loopback",
       "nodes = 60\n"
       "area = 1000\n"
       "regions = 4\n"
       "range = 250\n"
       "mobility = random-waypoint\n"
       "speed_max = 4\n"
       "pause = 5\n"
       "items = 300\n"
       "request_interval = 4\n"
       "zipf = 0.8\n"
       "policy = gd-ld\n"
       "cache = 0.02\n"
       "consistency = push-adaptive-pull\n"
       "updates = true\n"
       "update_interval = 12\n"
       "ttr_alpha = 0.5\n"
       "retrieval = precinct\n"
       "replicas = 1\n"
       "transport_pace = asap\n"
       "transport_retry = 0.05\n"
       "transport_timeout = 30\n"
       "transport_linger = 5\n"
       "warmup = 3\n"
       "measure = 12\n"},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

pc::PrecinctConfig make_config(const Workload& w, std::uint64_t seed) {
  pc::PrecinctConfig c =
      pc::config_from_kv(precinct::support::KvFile::parse(w.config));
  c.seed = seed;
  return c;
}

double simulated_seconds(const pc::PrecinctConfig& config) {
  return config.warmup_s + config.measure_s;
}

}  // namespace e2ebench
