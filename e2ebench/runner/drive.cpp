#include "drive.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "transport/udp_socket.hpp"

namespace e2ebench {

namespace pc = precinct::core;
namespace tr = precinct::transport;

RunResult run_plain(const pc::PrecinctConfig& c) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  pc::Scenario scenario(c);
  r.setup_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  const pc::Metrics m = scenario.run();
  r.wall_s = seconds_since(t1);
  r.fingerprint = pc::fingerprint(m);
  return r;
}

double setup_plain(const pc::PrecinctConfig& c) {
  const Clock::time_point t0 = Clock::now();
  const pc::Scenario scenario(c);
  return seconds_since(t0);
}

WorldRun run_world(pc::PrecinctConfig c, std::uint32_t shards) {
  c.shards = shards;
  WorldRun w;
  const Clock::time_point t0 = Clock::now();
  pc::WorldShardedScenario scenario(c);
  w.run.setup_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  w.metrics = scenario.run();
  w.run.wall_s = seconds_since(t1);
  w.run.fingerprint = pc::world_fingerprint(w.metrics);
  return w;
}

double setup_world(const pc::PrecinctConfig& c) {
  const Clock::time_point t0 = Clock::now();
  const pc::WorldShardedScenario scenario(c);
  return seconds_since(t0);
}

namespace {

/// Loopback addresses with OS-chosen free ports, one per domain.  The
/// probe sockets are all alive while their ports are read, so the ports
/// are distinct; the daemons rebind them right after.
std::vector<tr::UdpAddress> free_loopback_ports(std::uint32_t n) {
  std::vector<tr::UdpSocket> probes;
  probes.reserve(n);
  std::vector<tr::UdpAddress> peers;
  for (std::uint32_t i = 0; i < n; ++i) {
    probes.emplace_back(tr::UdpAddress{tr::kLoopbackHost, 0});
    peers.push_back({tr::kLoopbackHost, probes.back().local_port()});
  }
  return peers;
}

/// Construct one daemon per domain on its own thread; once all exist,
/// either run them together (`run_them`) or tear them down.
FleetRun fleet(const pc::PrecinctConfig& c, bool run_them) {
  const std::uint32_t n = c.regions_x;
  const std::vector<tr::UdpAddress> peers = free_loopback_ports(n);
  std::vector<std::unique_ptr<tr::NodeDaemon>> daemons(n);
  std::vector<std::string> errors(n);
  FleetRun out;
  out.reports.resize(n);

  std::mutex mu;
  std::condition_variable cv;
  std::uint32_t constructed = 0;
  bool go = false;
  std::atomic<bool> stop{false};

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    threads.emplace_back([&, d] {
      try {
        tr::NodeDaemon::Options opts;
        opts.config = c;
        opts.domain = d;
        opts.peers = peers;
        daemons[d] = std::make_unique<tr::NodeDaemon>(opts);
      } catch (const std::exception& e) {
        errors[d] = e.what();
        stop = true;
      }
      std::unique_lock<std::mutex> lock(mu);
      ++constructed;
      cv.notify_all();
      cv.wait(lock, [&] { return go; });
      lock.unlock();
      if (!run_them || daemons[d] == nullptr || stop) return;
      try {
        if (daemons[d]->run([&] { return stop.load(); }) !=
            tr::NodeDaemon::Outcome::kDone) {
          errors[d] = "daemon stopped before the horizon";
          stop = true;
          return;
        }
        out.reports[d] = daemons[d]->report();
      } catch (const std::exception& e) {
        errors[d] = e.what();
        stop = true;
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return constructed == n; });
    out.run.setup_s = seconds_since(t0);
    go = true;
  }
  cv.notify_all();
  const Clock::time_point t1 = Clock::now();
  for (std::thread& t : threads) t.join();
  out.run.wall_s = seconds_since(t1);
  daemons.clear();
  for (std::uint32_t d = 0; d < n; ++d) {
    if (!errors[d].empty()) {
      throw std::runtime_error("fleet domain " + std::to_string(d) + ": " +
                               errors[d]);
    }
  }
  if (run_them) out.run.fingerprint = tr::fleet_fingerprint(out.reports);
  return out;
}

}  // namespace

FleetRun run_fleet(const pc::PrecinctConfig& c) { return fleet(c, true); }

double setup_fleet(const pc::PrecinctConfig& c) {
  return fleet(c, false).run.setup_s;
}

}  // namespace e2ebench
