#include "core/batch/model_pool.hpp"

namespace redspot::batch {

Duration ZoneModelPool::expected_uptime(std::size_t zone,
                                        const PriceView& history, Money price,
                                        Money bid) {
  while (models_.size() <= zone) models_.emplace_back(kMaxStates);
  IncrementalMarkovModel& model = models_[zone];
  model.observe(history);
  return model.expected_uptime(price, bid);
}

}  // namespace redspot::batch
