// Per-zone Markov models: the one owner of the decision path's Markov
// state (DESIGN.md §10, §14).
//
// Every engine answers EngineView::expected_uptime from a pool: its own
// by default, or its batch group's after Engine::join_group. Every engine
// in a batch group sees the same trace, and the history
// window a policy fits is a pure function of (zone, now): it does not
// depend on which engine asks. Because the group advances in global time
// order, the shared per-zone IncrementalMarkovModel only ever slides
// forward — N engines pay ONE slide per tick instead of N — and the
// (start state, alive state) uptime memo inside each model dedupes the
// closed-form solves across every lane and bid of the group. That memo is
// the only E[Tu] cache: the pool adds none of its own.
//
// Bit-identity: IncrementalMarkovModel::observe(w) equals
// build_markov_model(w) bit-for-bit regardless of slide history (the §10
// property), and the memoized uptime equals the free-function solve
// bit-for-bit, so a shared pool answers exactly the doubles a private
// per-engine pool would — for ANY interleaving of the group's engines.
//
// The pool is single-threaded by construction (one pool per engine or per
// batch group, one group per sweep task).
#pragma once

#include <cstddef>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "markov/incremental.hpp"

namespace redspot::batch {

class ZoneModelPool {
 public:
  /// Markov state bound of every pooled model (see markov/model.hpp).
  static constexpr std::size_t kMaxStates = 64;

  /// observe(history) on the model of `zone`, then its memoized expected
  /// uptime.
  Duration expected_uptime(std::size_t zone, const PriceView& history,
                           Money price, Money bid);

 private:
  /// Indexed by global zone id.
  std::vector<IncrementalMarkovModel> models_;
};

}  // namespace redspot::batch
