#include "fabric/worker.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/transport/transport.hpp"
#include "ensemble/shard_exec.hpp"
#include "fabric/wire.hpp"
#include "fault/fault_plan.hpp"

namespace redspot::fabric {

namespace {

/// Computes one leased shard, heartbeating (and possibly dying) from the
/// progress callback, and streams the partial. Throws std::runtime_error
/// when the connection dies.
void compute_and_send(const ShardExecutor& exec, const FabricOptions& opt,
                      const ChaosPlan& chaos, transport::Stream& stream,
                      const LeaseMsg& lease, std::uint64_t shard,
                      ThreadPool* pool) {
  const auto [lo, hi] = exec.bounds(static_cast<std::size_t>(shard));
  // Chaos verdict is fixed before compute starts: die after roughly half
  // the shard's replications, so the kill lands mid-shard — after work
  // has been done, before any partial escapes.
  const std::size_t kill_after =
      should_kill(chaos, shard, lease.attempt) ? (hi - lo + 1) / 2 : 0;

  // The callback runs on pool threads, but never concurrently: heartbeat
  // frames cannot interleave on the stream.
  std::int64_t last_hb = mono_ms();
  const std::string payload = exec.compute(
      static_cast<std::size_t>(shard),
      [&](std::size_t done) {
        if (kill_after != 0 && done >= kill_after) {
          // Simulated crash: no goodbye, no flush, exactly SIGKILL.
          ::raise(SIGKILL);
        }
        const std::int64_t now = mono_ms();
        if (now - last_hb < opt.heartbeat_interval_ms) return;
        last_hb = now;
        try {
          transport::send_frame(stream, encode_heartbeat({shard, done}));
        } catch (const std::runtime_error&) {
          // Coordinator gone mid-compute; the partial send below will
          // surface it. Progress callbacks must not throw.
        }
      },
      pool);
  transport::send_frame(stream,
                        encode_partial({lease.lease_id, shard, payload}));
}

/// One connected session. Returns the worker exit code (0 done, 2
/// rejected), or -1 when the connection was lost and a reconnect is in
/// order. Sets *welcomed once the handshake succeeds.
int serve(const ShardExecutor& exec, const EnsembleSpec& spec,
          const FabricOptions& opt, const ChaosPlan& chaos,
          transport::Stream& stream, bool* welcomed,
          std::unique_ptr<ThreadPool>* pool) {
  try {
    HelloMsg hello;
    hello.spec_hash = exec.spec_hash();
    hello.replications = spec.replications;
    hello.num_shards = exec.num_shards();
    hello.num_configs = exec.num_configs();
    hello.pid = static_cast<std::uint64_t>(::getpid());
    transport::send_frame(stream, encode_hello(hello));
    // If the Hello (or the coordinator's Welcome) vanishes into a one-way
    // partition, no EOF ever comes; this deadline is the only way out.
    const std::int64_t handshake_deadline =
        mono_ms() + opt.handshake_timeout_ms;

    FrameBuffer in;
    while (true) {
      std::string frame;
      const FrameStatus status = in.next(&frame);
      if (status == FrameStatus::kCorrupt) return -1;
      if (status == FrameStatus::kNeedMore) {
        if (!*welcomed && mono_ms() >= handshake_deadline) {
          LOG_WARN << "fabric: handshake timed out; reconnecting";
          return -1;
        }
        // Idle workers must stay audibly alive: poll with a heartbeat
        // deadline instead of blocking on read forever.
        pollfd pfd{stream.fd(), POLLIN, 0};
        const int rc =
            ::poll(&pfd, 1, static_cast<int>(opt.heartbeat_interval_ms));
        if (rc < 0 && errno != EINTR) return -1;
        if (rc <= 0) {
          transport::send_frame(stream,
                                encode_heartbeat({HeartbeatMsg::kNoShard, 0}));
          continue;
        }
        if (!stream.read_into(in)) return -1;  // EOF
        continue;
      }

      const auto type = msg_type(frame);
      if (!type) return -1;
      switch (*type) {
        case MsgType::kWelcome: {
          const auto w = decode_welcome(frame);
          if (!w || w->spec_hash != exec.spec_hash()) return 2;
          *welcomed = true;
          break;
        }
        case MsgType::kReject: {
          const auto r = decode_reject(frame);
          LOG_WARN << "fabric: coordinator rejected this worker: "
                   << (r ? r->reason : std::string("malformed reject"));
          return 2;
        }
        case MsgType::kLease: {
          const auto lease = decode_lease(frame);
          if (!lease) return -1;
          // Built on the first lease, not before connecting: the handshake
          // never waits on thread start-up.
          if (*pool == nullptr) *pool = make_compute_pool(opt.threads);
          for (std::uint64_t s = lease->shard_lo; s < lease->shard_hi; ++s)
            compute_and_send(exec, opt, chaos, stream, *lease, s,
                             pool->get());
          break;
        }
        case MsgType::kAck:
          break;  // receipt confirmed; nothing to do
        case MsgType::kDone:
          return 0;
        default:
          return -1;  // worker-bound protocol only
      }
    }
  } catch (const std::runtime_error& e) {
    LOG_WARN << "fabric: connection lost: " << e.what();
    return -1;
  }
}

}  // namespace

int run_worker(const EnsembleSpec& spec, const FabricOptions& options,
               const ChaosPlan& chaos) {
  const auto ep = transport::parse_endpoint(options.endpoint);
  if (!ep) {
    LOG_WARN << "fabric: bad endpoint: " << options.endpoint;
    return 1;
  }
  const ShardExecutor exec(spec);
  // Jitter only desynchronizes reconnect stampedes; per-process seeding
  // is exactly what we want (shard results never depend on it).
  Rng rng(static_cast<std::uint64_t>(::getpid()), /*stream=*/0xFAB);
  // Outlives reconnects: a worker starts its threads once.
  std::unique_ptr<ThreadPool> pool;

  int attempt = 1;
  std::int64_t give_up_at = mono_ms() + options.give_up_ms;
  while (true) {
    std::unique_ptr<transport::Stream> stream = transport::connect(*ep);
    if (stream) {
      if (options.net_fault != nullptr)
        stream = options.net_fault->wrap(std::move(stream));
      bool welcomed = false;
      const int rc =
          serve(exec, spec, options, chaos, *stream, &welcomed, &pool);
      stream.reset();
      if (rc >= 0) return rc;
      if (welcomed) {
        // A worker that was in the fleet gets a fresh patience budget:
        // the coordinator may be mid-restart.
        attempt = 1;
        give_up_at = mono_ms() + options.give_up_ms;
      }
    }
    if (mono_ms() >= give_up_at) {
      LOG_WARN << "fabric: no coordinator at " << options.endpoint
               << " after " << options.give_up_ms << " ms; giving up";
      return 1;
    }
    const Duration delay =
        backoff_delay(options.reconnect, attempt++, rng.uniform());
    sleep_ms(static_cast<std::int64_t>(delay));
  }
}

}  // namespace redspot::fabric
