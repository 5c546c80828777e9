// Region-sharded conservative parallel discrete-event execution
// (DESIGN.md §11).
//
// The unit of parallelism is a *domain*: an independent Simulator (plus
// whatever model runs on it) that interacts with other domains only
// through timestamped cross-domain messages.  A ShardExecutor owns the
// mapping domain -> shard (one worker thread per shard) and advances all
// domains through fixed lookahead windows:
//
//   window W = [t, t + lookahead):
//     compute phase:  every shard advances its domains' simulators to the
//                     window end; callbacks may post() cross-domain
//                     messages, which land in per-(src,dst) SPSC
//                     mailboxes;
//     barrier tick;
//     merge phase:    every shard drains the mailboxes addressed to its
//                     own domains, scheduling each message into the
//                     destination simulator in (due, src domain, seq)
//                     order;
//     barrier tick.
//
// Conservative safety: post() requires due >= the current window's end
// (i.e. the message latency must be at least the lookahead), so a merged
// message can never be scheduled into a domain's past.  The lookahead is
// therefore the minimum cross-domain delivery latency — for the sharded
// PReCinCt world, the inter-tile gateway latency.
//
// Determinism: the window cadence, the mailbox contents per window, and
// the (due, src, seq) merge order are all pure functions of the
// configuration — the shard count only decides which thread does the
// work, never in which order messages are applied.  Fixed-seed runs are
// byte-identical for any n_shards, which the per-pack shard tests and the
// scenario fuzzer's metrics(K) == metrics(1) property gate.
//
// Threading: each run_until() call spins up its cohort (n_shards - 1
// std::threads; the caller is shard 0) synchronized by a reusable
// support::Barrier.  The cohort deliberately does NOT run on the global
// ThreadPool: queued pool tasks have no co-scheduling guarantee, so K
// mutually-blocking barrier participants on a busy pool would deadlock
// (see support/thread_pool.hpp).  n_shards == 1 runs the identical
// window loop inline with zero threads — today's single-threaded path.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/simulator.hpp"
#include "support/thread_pool.hpp"

namespace precinct::sim {

/// One cross-domain handoff: run `fn` on the destination domain at `due`.
struct CrossShardMsg {
  double due = 0.0;
  std::uint32_t src_domain = 0;
  std::uint64_t seq = 0;  ///< per-(src,dst) mailbox sequence
  EventCallback fn;
};

/// Single-producer single-consumer mailbox for one (src, dst) domain
/// pair.  Synchronization is structural, not atomic: the producer (the
/// worker advancing src) appends only during compute phases, the consumer
/// (the worker owning dst) drains only during merge phases, and the
/// executor's barrier tick between the phases is the happens-before edge.
class SpscMailbox {
 public:
  void push(double due, std::uint32_t src, EventCallback fn) {
    msgs_.push_back(CrossShardMsg{due, src, next_seq_++, std::move(fn)});
  }
  [[nodiscard]] bool empty() const noexcept { return msgs_.empty(); }
  /// Consumer side: move the pending batch out (mailbox keeps capacity).
  void drain_into(std::vector<CrossShardMsg>& out) {
    for (CrossShardMsg& m : msgs_) out.push_back(std::move(m));
    msgs_.clear();
  }

 private:
  std::vector<CrossShardMsg> msgs_;
  std::uint64_t next_seq_ = 0;
};

class ShardExecutor {
 public:
  struct Options {
    std::uint32_t n_shards = 1;
    /// Window length == minimum cross-domain message latency.
    double lookahead_s = 0.25;
  };

  /// `domains[d]` must outlive the executor; `shard_of[d]` maps each
  /// domain to a shard in [0, n_shards) (geo::partition_grid produces
  /// balanced, adjacency-aware assignments).
  ShardExecutor(std::vector<Simulator*> domains,
                std::vector<std::uint32_t> shard_of, const Options& options);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Post a cross-domain message.  Callable only from code running inside
  /// the compute phase of `src` (a callback on src's simulator) or, when
  /// the executor is idle, from the owning thread during setup.  Enforces
  /// the conservative bound: due must be at or after the current window's
  /// end (message latency >= lookahead), else throws std::logic_error.
  void post(std::uint32_t src, std::uint32_t dst, double due,
            EventCallback fn);

  /// Advance every domain to `end_time` through barrier-synced lookahead
  /// windows.  May be called repeatedly with increasing times (the
  /// sharded scenario runs warm-up and measurement as separate calls so
  /// phase boundaries stay exact window boundaries).
  void run_until(double end_time);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint32_t n_shards() const noexcept { return n_shards_; }
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  /// Lookahead windows completed so far (identical for any shard count).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Cross-domain messages merged so far.
  [[nodiscard]] std::uint64_t messages_merged() const noexcept {
    return messages_merged_;
  }
  /// End of the window currently being computed (== now() when idle).
  /// Models that exchange state exactly at window boundaries (the world
  /// shard halo) stamp their posts with this time: it is the earliest due
  /// the conservative bound admits.
  [[nodiscard]] double window_end() const noexcept { return window_end_; }

 private:
  [[nodiscard]] SpscMailbox& mailbox(std::uint32_t src, std::uint32_t dst) {
    return mailboxes_[static_cast<std::size_t>(src) * domains_.size() + dst];
  }
  /// Compute phase for one shard: advance its domains to `bound`.
  void advance_shard(std::uint32_t shard, double bound);
  /// Merge phase for one shard: drain mail addressed to its domains.
  void merge_shard(std::uint32_t shard);
  /// The windowed loop body run by every cohort member.
  void worker_loop(std::uint32_t shard);

  std::vector<Simulator*> domains_;
  std::vector<std::uint32_t> shard_of_;
  std::vector<std::vector<std::uint32_t>> shard_members_;
  std::uint32_t n_shards_;
  double lookahead_;

  std::vector<SpscMailbox> mailboxes_;  // src * n_domains + dst
  /// Per-shard merge scratch (sorting each destination's batch).
  std::vector<std::vector<CrossShardMsg>> merge_scratch_;
  /// Per-shard merged-message counters, summed at the end of run_until()
  /// so the total never races.
  std::vector<std::uint64_t> merged_per_shard_;

  double now_ = 0.0;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_merged_ = 0;

  // Cohort state for the current run_until() call (workers read, the
  // controller — shard 0 — writes between barrier ticks).
  support::Barrier barrier_;
  double window_end_ = 0.0;
  double run_end_ = 0.0;
  bool done_ = true;
  std::exception_ptr error_;
  std::mutex error_mutex_;
};

}  // namespace precinct::sim
