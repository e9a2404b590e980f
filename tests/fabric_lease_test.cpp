// LeaseTable policy, driven entirely on a fake millisecond clock — the
// coordinator's shard-ownership rules with no sockets anywhere. Pins the
// lease-expiry edge cases the fabric's recovery story depends on:
// a worker that dies after sending a partial but before the ack, a
// duplicate partial arriving after reassignment, and a lease expiring on
// the exact heartbeat boundary. Also covers the journal warm-up hooks
// (mark_done / record_attempt) a restarted coordinator uses, and the
// shared backoff_delay the worker's reconnect loop borrows from the
// fault module.
#include <gtest/gtest.h>

#include "fabric/lease.hpp"
#include "fault/fault_plan.hpp"

namespace redspot::fabric {
namespace {

LeaseConfig config(std::int64_t lease_ms = 10'000, std::int64_t hb_ms = 2'000,
                   std::uint64_t per_lease = 1) {
  LeaseConfig c;
  c.lease_duration_ms = lease_ms;
  c.heartbeat_timeout_ms = hb_ms;
  c.shards_per_lease = per_lease;
  return c;
}

TEST(LeaseTable, GrantsShardsInOrderOneLeasePerWorker) {
  LeaseTable t(4, config());
  const std::uint64_t w1 = 1;
  t.add_worker(w1, 0);
  const std::uint64_t w2 = 2;
  t.add_worker(w2, 0);

  const auto g1 = t.grant(w1, 0);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->shard_lo, 0u);
  EXPECT_EQ(g1->shard_hi, 1u);
  EXPECT_EQ(g1->attempt, 1u);

  // w1 already holds a lease: no second grant until it completes.
  EXPECT_FALSE(t.grant(w1, 0).has_value());

  const auto g2 = t.grant(w2, 0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard_lo, 1u);

  // Completion frees the worker for the next shard.
  EXPECT_EQ(t.complete(g1->shard_lo, 1), LeaseTable::Partial::kAccepted);
  const auto g3 = t.grant(w1, 1);
  ASSERT_TRUE(g3.has_value());
  EXPECT_EQ(g3->shard_lo, 2u);
}

TEST(LeaseTable, RangeLeases) {
  LeaseTable t(5, config(10'000, 2'000, /*per_lease=*/3));
  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  const auto g = t.grant(w, 0);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->shard_lo, 0u);
  EXPECT_EQ(g->shard_hi, 3u);
  // The lease is held until every shard in the range is done.
  EXPECT_EQ(t.complete(0, 1), LeaseTable::Partial::kAccepted);
  EXPECT_EQ(t.complete(1, 1), LeaseTable::Partial::kAccepted);
  EXPECT_FALSE(t.grant(w, 1).has_value());
  EXPECT_EQ(t.complete(2, 1), LeaseTable::Partial::kAccepted);
  const auto g2 = t.grant(w, 1);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard_lo, 3u);
  EXPECT_EQ(g2->shard_hi, 5u);
}

// Edge case 1: the worker delivers its partial and dies before the ack
// reaches it. The shard is done — the later death must not resurrect it.
TEST(LeaseTable, WorkerDiesAfterPartialBeforeAck) {
  LeaseTable t(2, config());
  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  const auto g = t.grant(w, 0);
  ASSERT_TRUE(g.has_value());

  // Partial arrives and is accepted...
  EXPECT_EQ(t.complete(g->shard_lo, 100), LeaseTable::Partial::kAccepted);
  EXPECT_EQ(t.done_count(), 1u);

  // ...then the connection drops before the ack could be read.
  t.remove_worker(w, 101);
  EXPECT_EQ(t.done_count(), 1u);

  // The dead worker's shard is NOT re-granted; only shard 1 remains.
  const std::uint64_t w2 = 2;
  t.add_worker(w2, 102);
  const auto g2 = t.grant(w2, 102);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard_lo, 1u);
  EXPECT_EQ(t.complete(1, 103), LeaseTable::Partial::kAccepted);
  EXPECT_TRUE(t.all_done());
}

// Edge case 2: a lease expires, the shard is reassigned and completed by
// the new owner — then the original (slow, not dead) worker's partial for
// the same shard finally lands. It must dedupe, not double-fold.
TEST(LeaseTable, DuplicatePartialAfterReassignmentDedupes) {
  LeaseTable t(1, config(/*lease_ms=*/1'000, /*hb_ms=*/600'000));
  const std::uint64_t slow = 1;
  t.add_worker(slow, 0);
  const auto g1 = t.grant(slow, 0);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->attempt, 1u);

  // Lease expires at t=1000; the shard returns to the pool.
  const auto expired = t.tick(1'000);
  EXPECT_EQ(expired.reclaimed_shards, 1u);

  // Reassigned to a second worker — attempt counter advances.
  const std::uint64_t fast = 2;
  t.add_worker(fast, 1'000);
  const auto g2 = t.grant(fast, 1'000);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard_lo, g1->shard_lo);
  EXPECT_EQ(g2->attempt, 2u);

  // New owner completes first; the stale partial then arrives.
  EXPECT_EQ(t.complete(g2->shard_lo, 1'500), LeaseTable::Partial::kAccepted);
  EXPECT_EQ(t.complete(g1->shard_lo, 1'600), LeaseTable::Partial::kDuplicate);
  EXPECT_EQ(t.done_count(), 1u);
  EXPECT_TRUE(t.all_done());
}

// The mirror interleaving: the ORIGINAL owner finishes first (its result
// is accepted even though its lease expired — work is work), and the
// reassigned worker's copy dedupes.
TEST(LeaseTable, ExpiredLeasePartialStillCounts) {
  LeaseTable t(1, config(1'000, 600'000));
  const std::uint64_t slow = 1;
  t.add_worker(slow, 0);
  const auto g1 = t.grant(slow, 0);
  ASSERT_TRUE(g1.has_value());
  t.tick(1'000);
  const std::uint64_t fast = 2;
  t.add_worker(fast, 1'000);
  const auto g2 = t.grant(fast, 1'000);
  ASSERT_TRUE(g2.has_value());

  EXPECT_EQ(t.complete(g1->shard_lo, 1'200), LeaseTable::Partial::kAccepted);
  EXPECT_EQ(t.complete(g2->shard_lo, 1'300), LeaseTable::Partial::kDuplicate);
  EXPECT_EQ(t.done_count(), 1u);
}

// Edge case 3: expiry on the exact boundary. A lease granted at t with
// duration D is dead at exactly t + D — and one millisecond earlier it
// is still alive. Same convention for the heartbeat timeout.
TEST(LeaseTable, LeaseExpiresOnExactBoundary) {
  LeaseTable t(1, config(/*lease_ms=*/1'000, /*hb_ms=*/600'000));
  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  ASSERT_TRUE(t.grant(w, 0).has_value());

  // t + D - 1: still live.
  auto e = t.tick(999);
  EXPECT_EQ(e.reclaimed_shards, 0u);
  // t + D exactly: expired.
  e = t.tick(1'000);
  EXPECT_EQ(e.reclaimed_shards, 1u);
}

TEST(LeaseTable, HeartbeatTimeoutOnExactBoundary) {
  LeaseTable t(1, config(/*lease_ms=*/600'000, /*hb_ms=*/2'000));
  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  ASSERT_TRUE(t.grant(w, 0).has_value());

  // Heartbeat at t=1500 pushes the deadline to 3500.
  t.touch(w, 1'500);
  auto e = t.tick(3'499);
  EXPECT_TRUE(e.dead_workers.empty());
  EXPECT_TRUE(t.has_worker(w));

  e = t.tick(3'500);
  ASSERT_EQ(e.dead_workers.size(), 1u);
  EXPECT_EQ(e.dead_workers[0], w);
  EXPECT_EQ(e.reclaimed_shards, 1u);
  EXPECT_FALSE(t.has_worker(w));

  // The reclaimed shard is re-grantable with a bumped attempt.
  const std::uint64_t w2 = 2;
  t.add_worker(w2, 3'500);
  const auto g = t.grant(w2, 3'500);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->attempt, 2u);
}

TEST(LeaseTable, NextDeadlineTracksEarliestEvent) {
  LeaseTable t(2, config(/*lease_ms=*/5'000, /*hb_ms=*/2'000));
  EXPECT_FALSE(t.next_deadline(0).has_value());

  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  // No lease yet: the worker's heartbeat deadline dominates.
  ASSERT_TRUE(t.next_deadline(0).has_value());
  EXPECT_EQ(*t.next_deadline(0), 2'000);

  ASSERT_TRUE(t.grant(w, 0).has_value());
  // Lease expiry (5000) is later than the heartbeat deadline (2000).
  EXPECT_EQ(*t.next_deadline(0), 2'000);
  t.touch(w, 4'500);
  // Heartbeat refreshed: lease expiry now comes first.
  EXPECT_EQ(*t.next_deadline(4'500), 5'000);
  // A deadline already in the past clamps to "now" (poll timeout 0).
  EXPECT_EQ(*t.next_deadline(6'000), 6'000);
}

TEST(LeaseTable, JournalWarmupRestoresDoneAndAttempts) {
  LeaseTable t(4, config());
  // A restarted coordinator replays: shards 0 and 2 done, shard 1 was
  // granted twice before the crash.
  t.mark_done(0);
  t.mark_done(2);
  t.mark_done(2);  // idempotent
  t.record_attempt(1, 2);
  t.record_attempt(1, 1);  // stale lower attempt never regresses

  EXPECT_EQ(t.done_count(), 2u);
  EXPECT_EQ(t.attempts(1), 2u);

  const std::uint64_t w = 1;
  t.add_worker(w, 0);
  const auto g = t.grant(w, 0);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->shard_lo, 1u);
  EXPECT_EQ(g->attempt, 3u);  // continues the journaled sequence

  EXPECT_EQ(t.complete(1, 1), LeaseTable::Partial::kAccepted);
  const auto g2 = t.grant(w, 1);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard_lo, 3u);
  EXPECT_EQ(t.complete(3, 2), LeaseTable::Partial::kAccepted);
  EXPECT_TRUE(t.all_done());
}

TEST(LeaseTable, OutOfRangePartialIsInvalid) {
  LeaseTable t(2, config());
  EXPECT_EQ(t.complete(2, 0), LeaseTable::Partial::kInvalid);
  EXPECT_EQ(t.complete(~0ULL, 0), LeaseTable::Partial::kInvalid);
  EXPECT_EQ(t.done_count(), 0u);
}

// --- the shared reconnect backoff ------------------------------------------

TEST(BackoffDelay, DoublesAndCaps) {
  const BackoffPolicy policy{/*base=*/100, /*cap=*/2'000, /*jitter=*/0.0};
  EXPECT_EQ(backoff_delay(policy, 1, 0.0), 100);
  EXPECT_EQ(backoff_delay(policy, 2, 0.0), 200);
  EXPECT_EQ(backoff_delay(policy, 3, 0.0), 400);
  EXPECT_EQ(backoff_delay(policy, 5, 0.0), 1'600);
  EXPECT_EQ(backoff_delay(policy, 6, 0.0), 2'000);   // capped
  EXPECT_EQ(backoff_delay(policy, 60, 0.0), 2'000);  // stays capped
}

TEST(BackoffDelay, JitterStretchesUpToFraction) {
  const BackoffPolicy policy{/*base=*/100, /*cap=*/2'000, /*jitter=*/0.5};
  EXPECT_EQ(backoff_delay(policy, 1, 0.0), 100);
  // Full draw stretches by the whole jitter fraction.
  EXPECT_EQ(backoff_delay(policy, 1, 0.999999), 149);
  // Jitter applies after the cap (desynchronizing capped retries too).
  EXPECT_GE(backoff_delay(policy, 10, 0.999999), 2'000);
}

}  // namespace
}  // namespace redspot::fabric
