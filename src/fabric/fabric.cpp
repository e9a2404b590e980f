#include "fabric/fabric.hpp"

#include <cerrno>
#include <ctime>

#include "common/parallel.hpp"

namespace redspot::fabric {

std::unique_ptr<ThreadPool> make_compute_pool(std::size_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

std::int64_t mono_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000'000;
}

void sleep_ms(std::int64_t ms) {
  timespec req{};
  req.tv_sec = ms / 1000;
  req.tv_nsec = (ms % 1000) * 1'000'000;
  timespec rem{};
  while (::nanosleep(&req, &rem) != 0 && errno == EINTR) req = rem;
}

}  // namespace redspot::fabric
