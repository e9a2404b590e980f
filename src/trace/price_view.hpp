// Non-owning, zero-copy window over a price series.
//
// Every policy decision reads a trailing window of the price history. The
// owning PriceSeries::window() materializes that window — a heap
// allocation plus a memcpy per decision, which dominates the replay loop
// once ensembles run thousands of replications. A PriceView is the same
// window as (start, step, span) metadata over storage owned by someone
// else: constructing, slicing, and scanning one never allocates.
//
// Lifetime rule (DESIGN.md §10): a view borrows its samples. Views handed
// out by the engine (EngineView::history) are valid only within the engine
// step that produced them; anything that must outlive the step calls
// materialize() to get an owning PriceSeries back.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"

namespace redspot {

class PriceSeries;

/// Piecewise-constant price window on a fixed sampling grid, non-owning.
class PriceView {
 public:
  PriceView() = default;

  /// `start` must be aligned to `step`; `samples` non-empty and owned by
  /// storage that outlives the view.
  PriceView(SimTime start, Duration step, std::span<const Money> samples)
      : start_(start), step_(step), samples_(samples) {
    REDSPOT_CHECK(step_ > 0);
    REDSPOT_CHECK_MSG(start_ % step_ == 0, "view start must align to step");
    REDSPOT_CHECK(!samples_.empty());
  }

  SimTime start() const { return start_; }
  /// One past the last covered instant: start + step * size.
  SimTime end() const {
    return start_ + step_ * static_cast<std::int64_t>(samples_.size());
  }
  Duration step() const { return step_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Price in effect at instant `t`. Requires start() <= t < end().
  Money at(SimTime t) const { return samples_[index_of(t)]; }

  /// Sample by index.
  Money sample(std::size_t i) const {
    REDSPOT_CHECK(i < samples_.size());
    return samples_[i];
  }

  std::span<const Money> samples() const { return samples_; }

  /// Identity of the underlying storage (for incremental consumers that
  /// need to recognize a slid window over the same series).
  const Money* data() const { return samples_.data(); }

  /// Index of the sample covering `t`. Requires start() <= t < end().
  std::size_t index_of(SimTime t) const {
    REDSPOT_CHECK_MSG(t >= start_ && t < end(),
                      "t=" << t << " outside [" << start_ << "," << end()
                           << ")");
    return static_cast<std::size_t>((t - start_) / step_);
  }

  /// Time at which sample `i` takes effect.
  SimTime time_of(std::size_t i) const {
    REDSPOT_CHECK(i < samples_.size());
    return start_ + step_ * static_cast<std::int64_t>(i);
  }

  /// First instant strictly after `t` where the price differs from the
  /// price at `t`; kNever if the price never changes again in this window.
  /// Shared by PriceSeries::next_change (the owning path delegates here).
  SimTime next_change(SimTime t) const;

  /// Minimum price over the window, without allocating (one linear scan:
  /// S_min's only implementation). Requires a non-empty view.
  Money min_price() const;
  /// Maximum price over the window, without allocating. Requires a
  /// non-empty view.
  Money max_price() const;

  /// Sub-view covering [from, to); bounds are clamped to the view span and
  /// aligned outward to the sampling grid. Requires a non-empty result.
  /// Same index arithmetic as PriceSeries::window, but no allocation.
  PriceView window(SimTime from, SimTime to) const;

  /// Owning copy of the window — the escape hatch for CSV export and tests
  /// that need the samples to outlive the underlying storage.
  PriceSeries materialize() const;

  /// Samples as doubles (for statistics / VAR). Allocates.
  std::vector<double> to_doubles() const;

 private:
  SimTime start_ = 0;
  Duration step_ = kPriceStep;
  std::span<const Money> samples_;
};

}  // namespace redspot
