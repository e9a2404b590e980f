#include "fault/fault_injector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redspot {

namespace {

// Stream ids keep each fault class on an independent decision sequence.
constexpr std::uint64_t kCkptStream = 0xFA010;
constexpr std::uint64_t kCorruptStream = 0xFA020;
constexpr std::uint64_t kRestartStream = 0xFA030;
constexpr std::uint64_t kRequestStream = 0xFA040;
constexpr std::uint64_t kNoticeStream = 0xFA050;
constexpr std::uint64_t kBackoffStream = 0xFA060;

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)),
      enabled_(plan_.enabled()),
      ckpt_rng_(seed, kCkptStream),
      corrupt_rng_(seed, kCorruptStream),
      restart_rng_(seed, kRestartStream),
      request_rng_(seed, kRequestStream),
      notice_rng_(seed, kNoticeStream),
      backoff_rng_(seed, kBackoffStream) {
  plan_.validate();
}

bool FaultInjector::store_unreachable(SimTime t) const {
  for (const StoreOutage& o : plan_.store_outages)
    if (t >= o.start && t < o.end) return true;
  return false;
}

bool FaultInjector::checkpoint_write_fails(SimTime t) {
  if (store_unreachable(t)) return true;
  if (plan_.ckpt_write_failure_rate <= 0.0) return false;
  return ckpt_rng_.bernoulli(plan_.ckpt_write_failure_rate);
}

bool FaultInjector::checkpoint_corrupts() {
  if (plan_.ckpt_corruption_rate <= 0.0) return false;
  return corrupt_rng_.bernoulli(plan_.ckpt_corruption_rate);
}

bool FaultInjector::restart_fails() {
  if (plan_.restart_failure_rate <= 0.0) return false;
  return restart_rng_.bernoulli(plan_.restart_failure_rate);
}

bool FaultInjector::request_rejected() {
  if (plan_.request_rejection_rate <= 0.0) return false;
  return request_rng_.bernoulli(plan_.request_rejection_rate);
}

FaultInjector::NoticeDelivery FaultInjector::notice_delivery(
    Duration notice) {
  REDSPOT_CHECK(notice > 0);
  if (plan_.notice_drop_rate > 0.0 &&
      notice_rng_.bernoulli(plan_.notice_drop_rate))
    return {true, 0};
  if (plan_.notice_late_rate <= 0.0 || plan_.notice_max_lag <= 0 ||
      !notice_rng_.bernoulli(plan_.notice_late_rate))
    return {false, 0};
  const Duration max_lag = std::min(plan_.notice_max_lag, notice);
  return {false, 1 + static_cast<Duration>(notice_rng_.uniform_index(
                         static_cast<std::uint64_t>(max_lag)))};
}

Duration FaultInjector::backoff_delay(int attempt) {
  // The RNG is consumed only when jitter can matter, preserving the
  // no-fault bit-identity contract (an all-zero-jitter plan draws nothing).
  const double draw =
      plan_.backoff.jitter > 0.0 ? backoff_rng_.uniform() : 0.0;
  return redspot::backoff_delay(plan_.backoff, attempt, draw);
}

}  // namespace redspot
