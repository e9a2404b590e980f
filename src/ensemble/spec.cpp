#include "ensemble/spec.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/policies/large_bid.hpp"

namespace redspot {

std::string EnsembleConfig::display_label() const {
  if (!label.empty()) return label;
  switch (kind) {
    case Kind::kAdaptive:
      return "adaptive";
    case Kind::kLargeBid:
      return "large-bid L=" + threshold.str();
    case Kind::kFixedPolicy:
      break;
  }
  std::string zs;
  for (std::size_t z : zones) {
    if (!zs.empty()) zs += ",";
    zs += std::to_string(z);
  }
  return to_string(policy) + " " + bid.str() + " z{" + zs + "}";
}

std::unique_ptr<Strategy> EnsembleConfig::make_strategy() const {
  switch (kind) {
    case Kind::kAdaptive:
      return std::make_unique<AdaptiveStrategy>();
    case Kind::kLargeBid:
      REDSPOT_CHECK(zones.size() == 1);
      return std::make_unique<FixedStrategy>(
          LargeBidPolicy::large_bid(), zones,
          std::make_unique<LargeBidPolicy>(threshold));
    case Kind::kFixedPolicy:
      REDSPOT_CHECK(!zones.empty());
      return std::make_unique<FixedStrategy>(bid, zones,
                                             make_policy(policy));
  }
  REDSPOT_CHECK_FAIL("unknown EnsembleConfig::Kind");
}

void EnsembleSpec::validate() const {
  REDSPOT_CHECK(replications > 0);
  REDSPOT_CHECK(starts_grid > 0);
  REDSPOT_CHECK(num_shards > 0);
  REDSPOT_CHECK(bootstrap_replicates >= 2);
  REDSPOT_CHECK(ci_level > 0.0 && ci_level < 1.0);
  REDSPOT_CHECK_MSG(!configs.empty(), "ensemble spec has no configs");
  for (const EnsembleConfig& c : configs) {
    if (c.kind != EnsembleConfig::Kind::kAdaptive)
      REDSPOT_CHECK(!c.zones.empty());
    if (c.kind == EnsembleConfig::Kind::kLargeBid)
      REDSPOT_CHECK_MSG(c.zones.size() == 1,
                        "Large-bid is single-zone (see Fig. 6)");
  }
  for (const MinGroup& g : min_groups) {
    REDSPOT_CHECK_MSG(!g.members.empty(), "empty min-group");
    for (std::size_t m : g.members)
      REDSPOT_CHECK_MSG(m < configs.size(), "min-group member out of range");
  }
  engine.faults.validate();
}

namespace {

void hash_config(HashStream& h, const EnsembleConfig& c) {
  h.u64(static_cast<std::uint64_t>(c.kind));
  h.u64(static_cast<std::uint64_t>(c.policy));
  h.i64(c.bid.micros());
  h.i64(c.threshold.micros());
  h.u64(c.zones.size());
  for (std::size_t z : c.zones) h.u64(z);
  // The label is presentation-only but part of the rendered summary, which
  // the cache returns verbatim — hash it so relabelled sweeps do not alias.
  h.str(c.display_label());
}

}  // namespace

std::uint64_t EnsembleSpec::spec_hash() const {
  HashStream h;
  h.u64(static_cast<std::uint64_t>(window));
  h.f64(slack_fraction);
  h.i64(checkpoint_cost);
  h.u64(seed);
  h.u64(replications);
  h.u64(starts_grid);
  h.u64(num_shards);
  h.u64(bootstrap_replicates);
  h.f64(ci_level);
  hash_engine_options(h, engine);
  h.u64(configs.size());
  for (const EnsembleConfig& c : configs) hash_config(h, c);
  h.u64(min_groups.size());
  for (const MinGroup& g : min_groups) {
    h.str(g.label);
    h.u64(g.members.size());
    for (std::size_t m : g.members) h.u64(m);
  }
  return h.digest();
}

}  // namespace redspot
