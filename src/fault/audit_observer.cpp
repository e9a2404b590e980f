#include "fault/audit_observer.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace redspot {

namespace {

template <typename... Parts>
[[noreturn]] void violated(const Parts&... parts) {
  std::ostringstream os;
  os << "run invariant violated: ";
  (os << ... << parts);
  throw CheckFailure(os.str());
}

}  // namespace

AuditObserver::AuditObserver(Experiment experiment, Money on_demand_rate,
                             AuditMode mode, MarketRegime regime)
    : start_(experiment.start),
      provider_forfeits_(regime.billing.refund ==
                         RefundRule::kProviderForfeitsCycle),
      validator_(std::move(experiment), on_demand_rate, std::move(regime)),
      mode_(mode) {
  reset();
}

void AuditObserver::reset() {
  last_ = start_;
  spot_ = Money();
  on_demand_ = Money();
  partial_at_.clear();
}

void AuditObserver::advance(SimTime t) {
  if (t < last_)
    violated("time goes back from ", format_time(last_), " to ",
             format_time(t));
  last_ = t;
}

void AuditObserver::on_billing(const LineItem& item) {
  if (item.amount < Money())
    violated("negative line item of ", item.amount.str());
  const Duration used = item.charged_at - item.cycle_start;
  switch (item.kind) {
    case LineItem::Kind::kSpotHour:
      if (used != kHour)
        violated("spot hour at ", format_time(item.cycle_start),
                 " not charged at its boundary");
      spot_ += item.amount;
      return;
    case LineItem::Kind::kSpotUserPartial:
    case LineItem::Kind::kSpotUsage:
      // used == 0 is legal: a termination landing exactly on the cycle
      // boundary still pays the cycle that just started.
      if (used < 0 || used > kHour)
        violated("partial spot cycle at ", format_time(item.cycle_start),
                 " spans ", format_duration(used));
      if (item.kind == LineItem::Kind::kSpotUserPartial) {
        if (item.zone >= partial_at_.size())
          partial_at_.resize(item.zone + 1, kNever);
        partial_at_[item.zone] = item.charged_at;
      }
      spot_ += item.amount;
      return;
    case LineItem::Kind::kOnDemandHour:
    case LineItem::Kind::kOnDemandUsage:
      on_demand_ += item.amount;
      return;
  }
  violated("line item of unknown kind ", static_cast<int>(item.kind));
}

void AuditObserver::on_termination(SimTime t, std::size_t zone,
                                   TerminationCause cause) {
  advance(t);
  if (zone >= partial_at_.size()) return;
  // The teardown's own line items precede this hook, so a partial hour
  // billed at this very instant was charged for this kill.
  if (cause == TerminationCause::kOutOfBid && provider_forfeits_ &&
      partial_at_[zone] == t)
    violated("zone ", zone, " charged a partial hour at its out-of-bid "
             "termination ", format_time(t));
  partial_at_[zone] = kNever;
}

void AuditObserver::on_finish(const RunResult& result) {
  const Money spot = spot_;
  const Money on_demand = on_demand_;
  reset();
  validator_.check(result, mode_);
  if (spot != result.spot_cost)
    violated("spot line items sum to ", spot.str(), " != spot_cost ",
             result.spot_cost.str());
  if (on_demand != result.on_demand_cost)
    violated("on-demand line items sum to ", on_demand.str(),
             " != on_demand_cost ", result.on_demand_cost.str());
}

}  // namespace redspot
