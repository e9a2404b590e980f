#include "fabric/lease.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redspot::fabric {

LeaseTable::LeaseTable(std::uint64_t num_shards, LeaseConfig config)
    : num_shards_(num_shards),
      config_(config),
      state_(num_shards, ShardState::kPending),
      attempts_(num_shards, 0) {
  REDSPOT_CHECK(num_shards > 0);
  REDSPOT_CHECK(config_.lease_duration_ms > 0);
  REDSPOT_CHECK(config_.heartbeat_timeout_ms > 0);
  REDSPOT_CHECK(config_.shards_per_lease > 0);
}

void LeaseTable::add_worker(std::uint64_t worker, std::int64_t now_ms) {
  REDSPOT_CHECK(worker != 0 && !has_worker(worker));
  Worker w;
  w.id = worker;
  w.last_seen = now_ms;
  w.alive = true;
  workers_.push_back(w);
}

void LeaseTable::remove_worker(std::uint64_t worker, std::int64_t now_ms) {
  (void)now_ms;
  for (std::size_t i = leases_.size(); i-- > 0;)
    if (leases_[i].worker == worker) release_lease(i);
  workers_.erase(std::remove_if(workers_.begin(), workers_.end(),
                                [&](const Worker& w) { return w.id == worker; }),
                 workers_.end());
}

bool LeaseTable::has_worker(std::uint64_t worker) const {
  for (const Worker& w : workers_)
    if (w.id == worker) return true;
  return false;
}

void LeaseTable::touch(std::uint64_t worker, std::int64_t now_ms) {
  for (Worker& w : workers_)
    if (w.id == worker) {
      w.last_seen = std::max(w.last_seen, now_ms);
      return;
    }
}

const LeaseTable::Lease* LeaseTable::lease_of(std::uint64_t worker) const {
  for (const Lease& l : leases_)
    if (l.worker == worker) return &l;
  return nullptr;
}

std::optional<LeaseTable::Grant> LeaseTable::grant(std::uint64_t worker,
                                                   std::int64_t now_ms) {
  if (!has_worker(worker) || lease_of(worker) != nullptr) return std::nullopt;
  std::uint64_t lo = 0;
  while (lo < num_shards_ && state_[lo] != ShardState::kPending) ++lo;
  if (lo == num_shards_) return std::nullopt;
  std::uint64_t hi = lo;
  while (hi < num_shards_ && hi - lo < config_.shards_per_lease &&
         state_[hi] == ShardState::kPending)
    ++hi;

  Lease l;
  l.id = next_lease_++;
  l.worker = worker;
  l.shard_lo = lo;
  l.shard_hi = hi;
  l.expires_at = now_ms + config_.lease_duration_ms;
  l.remaining = hi - lo;
  for (std::uint64_t s = lo; s < hi; ++s) {
    state_[s] = ShardState::kLeased;
    ++attempts_[s];
  }
  leases_.push_back(l);
  return Grant{l.id, lo, hi, attempts_[lo]};
}

LeaseTable::Partial LeaseTable::complete(std::uint64_t shard,
                                         std::int64_t now_ms) {
  (void)now_ms;
  if (shard >= num_shards_) return Partial::kInvalid;
  if (state_[shard] == ShardState::kDone) return Partial::kDuplicate;
  state_[shard] = ShardState::kDone;
  ++done_;
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    Lease& l = leases_[i];
    if (shard >= l.shard_lo && shard < l.shard_hi) {
      if (--l.remaining == 0) {
        leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
  }
  return Partial::kAccepted;
}

void LeaseTable::release_lease(std::size_t index) {
  const Lease l = leases_[index];
  leases_.erase(leases_.begin() + static_cast<std::ptrdiff_t>(index));
  for (std::uint64_t s = l.shard_lo; s < l.shard_hi; ++s)
    if (state_[s] == ShardState::kLeased) state_[s] = ShardState::kPending;
}

LeaseTable::Expired LeaseTable::tick(std::int64_t now_ms) {
  Expired out;
  // Expired leases first: now == expires_at counts as expired.
  for (std::size_t i = leases_.size(); i-- > 0;) {
    if (now_ms >= leases_[i].expires_at) {
      out.reclaimed_shards += leases_[i].remaining;
      release_lease(i);
    }
  }
  // Then silent workers; their leases (if any survived above) go too.
  std::vector<std::uint64_t> dead;
  for (const Worker& w : workers_)
    if (now_ms - w.last_seen >= config_.heartbeat_timeout_ms)
      dead.push_back(w.id);
  for (std::uint64_t id : dead) {
    for (std::size_t i = leases_.size(); i-- > 0;)
      if (leases_[i].worker == id) {
        out.reclaimed_shards += leases_[i].remaining;
        release_lease(i);
      }
    remove_worker(id, now_ms);
  }
  out.dead_workers = std::move(dead);
  return out;
}

std::optional<std::int64_t> LeaseTable::next_deadline(
    std::int64_t now_ms) const {
  std::optional<std::int64_t> best;
  const auto consider = [&](std::int64_t t) {
    if (!best || t < *best) best = t;
  };
  for (const Lease& l : leases_) consider(l.expires_at);
  for (const Worker& w : workers_)
    consider(w.last_seen + config_.heartbeat_timeout_ms);
  if (best && *best < now_ms) best = now_ms;
  return best;
}

void LeaseTable::mark_done(std::uint64_t shard) {
  REDSPOT_CHECK(shard < num_shards_);
  if (state_[shard] == ShardState::kDone) return;
  REDSPOT_CHECK(state_[shard] == ShardState::kPending);
  state_[shard] = ShardState::kDone;
  ++done_;
}

void LeaseTable::record_attempt(std::uint64_t shard, std::uint64_t attempt) {
  REDSPOT_CHECK(shard < num_shards_);
  attempts_[shard] = std::max(attempts_[shard], attempt);
}

std::uint64_t LeaseTable::attempts(std::uint64_t shard) const {
  REDSPOT_CHECK(shard < num_shards_);
  return attempts_[shard];
}

std::uint64_t LeaseTable::live_workers() const { return workers_.size(); }

}  // namespace redspot::fabric
