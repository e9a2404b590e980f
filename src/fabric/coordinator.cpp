#include "fabric/coordinator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/transport/framed_loop.hpp"
#include "ensemble/shard_exec.hpp"
#include "fabric/wire.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"

namespace redspot::fabric {

namespace {

using ConnId = transport::FramedLoop::ConnId;

transport::Endpoint parse_or_throw(const std::string& endpoint) {
  const auto ep = transport::parse_endpoint(endpoint);
  if (!ep) throw std::runtime_error("fabric: bad endpoint: " + endpoint);
  return *ep;
}

}  // namespace

struct Coordinator::Impl {
  const EnsembleSpec& spec;
  FabricOptions opt;
  RunJournal* journal;
  ShardExecutor exec;
  LeaseTable table;
  /// Canonical record per completed shard, whatever path delivered it.
  std::vector<std::optional<EnsembleShardRecord>> recs;
  CoordinatorReport report;
  /// A welcomed worker's id in the lease table is its connection id.
  transport::FramedLoop loop;
  /// Accept time of every connection that has not said Hello yet.
  std::unordered_map<ConnId, std::int64_t> awaiting_hello;

  Impl(const EnsembleSpec& s, FabricOptions o, RunJournal* j)
      : spec(s),
        opt(std::move(o)),
        journal(j),
        exec(spec),
        table(spec.num_shards, opt.lease),
        recs(spec.num_shards),
        // Bind in the constructor, before run(): callers that fork workers
        // right after constructing the coordinator must never race the
        // bind, and tcp:HOST:0 callers need the resolved port.
        loop(parse_or_throw(opt.endpoint),
             {.on_frame = [this](ConnId c,
                                 std::string_view p) { dispatch(c, p); },
              .on_open =
                  [this](ConnId c) { awaiting_hello.emplace(c, mono_ms()); },
              .on_close = [this](ConnId c) { on_close(c); }}) {
    replay_journal();
  }

  /// Restores completed shards and attempt counters from the journal.
  void replay_journal() {
    if (journal == nullptr) return;
    for (const std::string& payload : journal->records()) {
      const auto rec_type = record_type(payload);
      if (!rec_type) continue;
      switch (*rec_type) {
        case RecordType::kEnsembleShard: {
          auto rec = decode_ensemble_shard(payload);
          if (!rec || !exec.matches(*rec)) continue;
          const auto shard = static_cast<std::size_t>(rec->shard);
          if (recs[shard].has_value()) continue;
          if (!exec.audit(*rec)) {
            LOG_WARN << "fabric: journaled shard " << shard
                     << " failed the replay audit; will recompute";
            continue;
          }
          recs[shard] = std::move(rec);
          table.mark_done(shard);
          ++report.shards_replayed;
          break;
        }
        case RecordType::kFabricLease: {
          const auto lease = decode_fabric_lease(payload);
          if (!lease || lease->spec_hash != exec.spec_hash()) continue;
          for (std::uint64_t s = lease->shard_lo;
               s < lease->shard_hi && s < table.num_shards(); ++s)
            table.record_attempt(s, lease->attempt);
          break;
        }
        default:
          break;
      }
    }
  }

  void dispatch(ConnId c, std::string_view payload) {
    const std::int64_t now = mono_ms();
    const auto type = msg_type(payload);
    if (!type) {
      loop.close(c);
      return;
    }
    switch (*type) {
      case MsgType::kHello: {
        const auto hello = decode_hello(payload);
        if (!hello) {
          loop.close(c);
          return;
        }
        if (hello->protocol != kProtocolVersion ||
            hello->spec_hash != exec.spec_hash() ||
            hello->replications != spec.replications ||
            hello->num_shards != exec.num_shards() ||
            hello->num_configs != exec.num_configs()) {
          LOG_WARN << "fabric: rejecting worker pid " << hello->pid
                   << " (spec/protocol mismatch)";
          loop.post(c, encode_reject({"spec or protocol mismatch"}));
          loop.close(c);
          return;
        }
        // Registration is idempotent: a duplicate-delivered Hello (or a
        // worker retrying an uncertain handshake) gets the same worker id
        // re-welcomed rather than a dead connection.
        if (awaiting_hello.erase(c) > 0) {
          table.add_worker(c, now);
          ++report.workers_seen;
        }
        loop.post(c, encode_welcome({kProtocolVersion, exec.spec_hash(), c}));
        break;
      }
      case MsgType::kHeartbeat:
        if (!table.has_worker(c)) {
          loop.close(c);
          return;
        }
        table.touch(c, now);
        break;
      case MsgType::kPartial:
        handle_partial(c, payload, now);
        break;
      case MsgType::kGoodbye: {
        const auto bye = decode_goodbye(payload);
        if (bye && !bye->reason.empty()) {
          LOG_WARN << "fabric: worker " << c << " left: " << bye->reason;
        }
        loop.close(c);
        break;
      }
      default:
        // Coordinator-bound traffic only; anything else is a broken peer.
        loop.close(c);
        break;
    }
  }

  void handle_partial(ConnId c, std::string_view payload, std::int64_t now) {
    const auto partial = decode_partial(payload);
    if (!partial || !table.has_worker(c)) {
      loop.close(c);
      return;
    }
    table.touch(c, now);
    // Trust nothing: the nested record must be a well-formed shard record
    // for this exact spec, claim the shard the envelope claims, and pass
    // the replay audit — the same bar journal replay sets.
    auto rec = decode_ensemble_shard(partial->record);
    if (!rec || !exec.matches(*rec) || rec->shard != partial->shard ||
        !exec.audit(*rec)) {
      LOG_WARN << "fabric: dropping worker " << c
               << " (invalid partial for shard " << partial->shard << ")";
      loop.close(c);
      return;
    }
    switch (table.complete(partial->shard, now)) {
      case LeaseTable::Partial::kAccepted:
        // Durability before acknowledgement: once the ack is out the
        // worker may be killed, and this shard must survive us too.
        if (journal != nullptr) journal->append(partial->record);
        recs[static_cast<std::size_t>(partial->shard)] = std::move(rec);
        ++report.shards_from_fleet;
        loop.post(c, encode_ack({partial->shard, false}));
        break;
      case LeaseTable::Partial::kDuplicate:
        // A reassignment raced the original owner — or the network
        // delivered the frame twice; the work is already folded, so just
        // confirm receipt.
        ++report.duplicate_partials;
        loop.post(c, encode_ack({partial->shard, true}));
        break;
      case LeaseTable::Partial::kInvalid:
        loop.close(c);
        break;
    }
  }

  /// A connection is gone. A worker still in the table leaves it (its
  /// lease returns to the pool) and counts as lost; one the table already
  /// declared dead was counted when it expired.
  void on_close(ConnId c) {
    awaiting_hello.erase(c);
    if (!table.has_worker(c)) return;
    table.remove_worker(c, mono_ms());
    ++report.workers_lost;
  }

  /// Grants a lease to every welcomed, idle worker. The grant is
  /// journaled before it is sent: the attempt counter must be durable
  /// before any chaos kill it triggers, or a restarted coordinator would
  /// replay a different kill schedule.
  ///
  /// After handle_partial's ack this lease is the second of two
  /// back-to-back writes before the next read (a write-write-read
  /// exchange), which is why accepted TCP streams must be TCP_NODELAY.
  void grant_leases(std::int64_t now) {
    for (const ConnId c : loop.connections()) {
      const auto g = table.grant(c, now);
      if (!g) continue;
      if (journal != nullptr) {
        FabricLeaseRecord rec;
        rec.spec_hash = exec.spec_hash();
        rec.lease_id = g->lease_id;
        rec.shard_lo = g->shard_lo;
        rec.shard_hi = g->shard_hi;
        rec.attempt = g->attempt;
        rec.worker = c;
        journal->append(encode_fabric_lease(rec));
      }
      loop.post(c, encode_lease(
                       {g->lease_id, g->shard_lo, g->shard_hi, g->attempt,
                        static_cast<std::uint64_t>(opt.lease.lease_duration_ms)}));
    }
  }

  /// Zero-fleet escape hatch: compute the remaining shards right here,
  /// through the same executor and journal the fleet path uses.
  void run_fallback() {
    LOG_WARN << "fabric: no reachable workers for " << opt.fallback_wait_ms
             << " ms; finishing " << (table.num_shards() - table.done_count())
             << " shard(s) in-process";
    report.used_fallback = true;
    loop.close_all();
    // Each remaining shard's replications run on every core; shards are
    // still journaled and recorded one at a time, in shard order.
    const std::unique_ptr<ThreadPool> pool = make_compute_pool(opt.threads);
    for (std::uint64_t s = 0; s < table.num_shards(); ++s) {
      if (recs[s].has_value()) continue;
      const std::string payload =
          exec.compute(static_cast<std::size_t>(s), {}, pool.get());
      auto rec = decode_ensemble_shard(payload);
      REDSPOT_CHECK_MSG(rec.has_value() && exec.matches(*rec),
                        "fallback shard record failed to decode");
      if (journal != nullptr) journal->append(payload);
      recs[s] = std::move(rec);
      table.complete(s, 0);
      ++report.shards_fallback;
    }
  }

  CoordinatorReport run() {
    std::int64_t last_fleet = mono_ms();

    while (!table.all_done()) {
      std::int64_t now = mono_ms();
      const bool fleet = !loop.connections().empty();

      if (fleet) {
        last_fleet = now;
      } else if (now - last_fleet >= opt.fallback_wait_ms) {
        run_fallback();
        break;
      }

      // Sleep until something can happen: socket traffic, the next lease
      // or heartbeat deadline, or the fallback trigger. Capped at 1 s so
      // a logic error can never turn into an infinite sleep.
      std::int64_t wake = now + 1'000;
      if (const auto d = table.next_deadline(now)) wake = std::min(wake, *d);
      if (!fleet) wake = std::min(wake, last_fleet + opt.fallback_wait_ms);
      loop.poll_once(static_cast<int>(std::max<std::int64_t>(
          0, std::min<std::int64_t>(wake - now, 1'000))));

      now = mono_ms();
      // A connection that never completes its Hello is not a slow worker
      // — it is a half-open peer (its Hello may have vanished into a
      // one-way partition). EOF never comes on such a socket; the
      // heartbeat deadline is the only honest death verdict.
      for (const auto& [c, accepted_at] : awaiting_hello) {
        if (now - accepted_at >= opt.lease.heartbeat_timeout_ms) {
          LOG_WARN << "fabric: dropping connection that never said hello";
          loop.close(c);
        }
      }

      const auto expired = table.tick(now);
      if (!expired.dead_workers.empty() || expired.reclaimed_shards > 0) {
        LOG_WARN << "fabric: reclaimed " << expired.reclaimed_shards
                 << " shard(s) from " << expired.dead_workers.size()
                 << " silent worker(s)";
        report.workers_lost += expired.dead_workers.size();
        for (const std::uint64_t w : expired.dead_workers) loop.close(w);
      }

      grant_leases(now);
    }

    // Fleet path finished: release everyone still connected. close_all
    // flushes each kDone before the EOF that follows it.
    for (const ConnId c : loop.connections())
      loop.post(c, encode_done({table.num_shards()}));
    loop.close_all();

    // Deterministic reduction, identical to the in-process runner: one
    // canonical record per shard, folded in shard order.
    std::vector<ShardExecutor::Acc> accs;
    accs.reserve(table.num_shards());
    for (std::uint64_t s = 0; s < table.num_shards(); ++s) {
      REDSPOT_CHECK_MSG(recs[s].has_value(), "fabric: shard never completed");
      ShardExecutor::Acc acc = exec.make_acc();
      exec.fold(*recs[s], acc);
      accs.push_back(std::move(acc));
    }
    report.result = exec.reduce(std::move(accs));
    report.result.shards_replayed =
        static_cast<std::size_t>(report.shards_replayed);
    report.result.shards_recomputed = static_cast<std::size_t>(
        report.shards_from_fleet + report.shards_fallback);
    return report;
  }
};

Coordinator::Coordinator(const EnsembleSpec& spec, FabricOptions options,
                         RunJournal* journal)
    : impl_(std::make_unique<Impl>(spec, std::move(options), journal)) {}

Coordinator::~Coordinator() = default;

std::string Coordinator::endpoint() const {
  return impl_->loop.local_endpoint();
}

CoordinatorReport Coordinator::run() { return impl_->run(); }

}  // namespace redspot::fabric
