#include "market/regime.hpp"

#include "common/check.hpp"

namespace redspot {

MarketRegime MarketRegime::classic_2012() { return MarketRegime{}; }

MarketRegime MarketRegime::per_second() {
  MarketRegime r;
  r.name = "per-second";
  r.billing.granularity = BillingGranularity::kPerSecond;
  r.billing.minimum = kMinute;
  r.billing.refund = RefundRule::kProviderChargesUsage;
  return r;
}

MarketRegime MarketRegime::rebalance() {
  MarketRegime r;
  r.name = "rebalance";
  r.rebalance_notice = 2 * kMinute;
  return r;
}

MarketRegime MarketRegime::modern_multi() {
  MarketRegime r = per_second();
  r.name = "modern-multi";
  r.rebalance_notice = 2 * kMinute;
  return r;
}

const MarketRegime& MarketRegime::classic() {
  static const MarketRegime kClassic = classic_2012();
  return kClassic;
}

const std::vector<MarketRegime>& regime_catalog() {
  static const std::vector<MarketRegime> kCatalog = {
      MarketRegime::classic_2012(), MarketRegime::per_second(),
      MarketRegime::rebalance(), MarketRegime::modern_multi()};
  return kCatalog;
}

const MarketRegime& regime_by_name(const std::string& name) {
  for (const MarketRegime& r : regime_catalog())
    if (r.name == name) return r;
  REDSPOT_CHECK_MSG(false, "unknown market regime: " << name);
  return regime_catalog().front();  // unreachable
}

void hash_regime(HashStream& h, const MarketRegime& regime) {
  h.str(regime.name);
  h.u64(static_cast<std::uint64_t>(regime.billing.granularity));
  h.i64(regime.billing.minimum);
  h.u64(static_cast<std::uint64_t>(regime.billing.refund));
  h.i64(regime.rebalance_notice);
}

std::uint64_t regime_fingerprint(const MarketRegime& regime) {
  HashStream h;
  h.str("market-regime-v1");
  hash_regime(h, regime);
  return h.digest();
}

}  // namespace redspot
