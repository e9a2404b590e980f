// LeaseTable: the coordinator's pure shard-ownership state machine.
//
// All policy questions — who may compute which shards, when a lease has
// expired, when a silent worker is declared dead, whether a partial is
// fresh or a duplicate — live here, over an abstract millisecond clock the
// caller advances. No I/O, no threads, no wall time: the lease-expiry
// edge cases (worker dies after sending a partial but before the ack, a
// duplicate partial arriving after reassignment, a lease expiring on the
// exact heartbeat boundary) are unit-testable with a fake clock.
//
// Boundary convention, pinned by tests: a lease is live strictly while
// now < expires_at — at now == expires_at it is already expired. A worker
// is dead once now - last_seen >= heartbeat_timeout. Expiry returns every
// unfinished shard of the lease to the pending pool and bumps each
// shard's attempt counter on the next grant, which is what keys the
// ChaosPlan and makes kill schedules reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace redspot::fabric {

struct LeaseConfig {
  std::int64_t lease_duration_ms = 10'000;
  std::int64_t heartbeat_timeout_ms = 2'000;
  /// Max contiguous shards per grant; 1 keeps reassignment granular.
  std::uint64_t shards_per_lease = 1;
};

class LeaseTable {
 public:
  LeaseTable(std::uint64_t num_shards, LeaseConfig config);

  // -- worker sessions ------------------------------------------------
  /// Registers a session under the caller's nonzero id, never reused
  /// (the coordinator passes the worker's connection id).
  void add_worker(std::uint64_t worker, std::int64_t now_ms);
  /// Drops a session (connection closed): live leases return to the pool.
  void remove_worker(std::uint64_t worker, std::int64_t now_ms);
  bool has_worker(std::uint64_t worker) const;
  /// Any message from the worker refreshes its liveness.
  void touch(std::uint64_t worker, std::int64_t now_ms);

  // -- grants ----------------------------------------------------------
  struct Grant {
    std::uint64_t lease_id = 0;
    std::uint64_t shard_lo = 0;
    std::uint64_t shard_hi = 0;
    std::uint64_t attempt = 0;  ///< grants of shard_lo so far, 1-based
  };
  /// Leases the lowest run of pending shards to `worker`, or nullopt when
  /// the pool is empty or the worker already holds a lease (one lease per
  /// worker keeps partial streams trivially ordered).
  std::optional<Grant> grant(std::uint64_t worker, std::int64_t now_ms);

  // -- partials --------------------------------------------------------
  enum class Partial {
    kAccepted,   ///< first completion: fold + journal + ack
    kDuplicate,  ///< shard already done (reassignment raced): ack only
    kInvalid,    ///< shard out of range: drop the sender
  };
  /// Records shard completion regardless of which worker computed it — a
  /// partial from an expired lease is still a valid result (dedupe is by
  /// shard id; the caller has already checked the spec hash).
  Partial complete(std::uint64_t shard, std::int64_t now_ms);

  // -- time ------------------------------------------------------------
  struct Expired {
    std::vector<std::uint64_t> dead_workers;  ///< heartbeat-timed-out ids
    std::uint64_t reclaimed_shards = 0;       ///< returned to the pool
  };
  /// Advances policy to `now_ms`: expires overdue leases, declares silent
  /// workers dead (removing them; the caller closes their connections).
  Expired tick(std::int64_t now_ms);
  /// Earliest instant tick() could change anything (lease expiry or
  /// heartbeat deadline), or nullopt when nothing is pending — feeds the
  /// coordinator's poll() timeout.
  std::optional<std::int64_t> next_deadline(std::int64_t now_ms) const;

  // -- journal warm-up -------------------------------------------------
  /// Marks a shard done during journal replay (no lease involved).
  void mark_done(std::uint64_t shard);
  /// Restores a shard's attempt counter from a journaled lease record so
  /// chaos decisions keep their sequence across a coordinator restart.
  void record_attempt(std::uint64_t shard, std::uint64_t attempt);

  // -- introspection ---------------------------------------------------
  std::uint64_t num_shards() const { return num_shards_; }
  std::uint64_t done_count() const { return done_; }
  bool all_done() const { return done_ == num_shards_; }
  std::uint64_t attempts(std::uint64_t shard) const;
  std::uint64_t live_workers() const;

 private:
  enum class ShardState : std::uint8_t { kPending, kLeased, kDone };

  struct Lease {
    std::uint64_t id = 0;
    std::uint64_t worker = 0;
    std::uint64_t shard_lo = 0;
    std::uint64_t shard_hi = 0;
    std::int64_t expires_at = 0;
    std::uint64_t remaining = 0;  ///< shards in range not yet done
  };

  struct Worker {
    std::uint64_t id = 0;
    std::int64_t last_seen = 0;
    bool alive = false;
  };

  void release_lease(std::size_t index);
  const Lease* lease_of(std::uint64_t worker) const;

  std::uint64_t num_shards_;
  LeaseConfig config_;
  std::vector<ShardState> state_;
  std::vector<std::uint64_t> attempts_;
  std::vector<Lease> leases_;
  std::vector<Worker> workers_;
  std::uint64_t next_lease_ = 1;
  std::uint64_t done_ = 0;
};

}  // namespace redspot::fabric
