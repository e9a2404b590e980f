// Serve subsystem unit tests: wire-protocol roundtrips, the live
// TickStore, the LRU model registry, and — the subsystem's correctness
// contract — bit-identity between the incrementally slid advisor and the
// from-scratch offline Adaptive decision over the same history.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/daly.hpp"
#include "common/check.hpp"
#include "core/adaptive/estimator.hpp"
#include "core/adaptive/history_stats.hpp"
#include "markov/model.hpp"
#include "markov/uptime.hpp"
#include "serve/advisor.hpp"
#include "serve/proto.hpp"
#include "serve/registry.hpp"
#include "serve/tick_store.hpp"
#include "test_util.hpp"

namespace redspot::serve {
namespace {

using redspot::testing::constant_series;
using redspot::testing::step_series;
using redspot::testing::zones;

/// A 3-zone market with structure: a cheap stable zone, a spiky zone and
/// an expensive one. `steps` samples from t = 0.
ZoneTraceSet wavy_traces(std::size_t steps) {
  std::vector<Money> a, b, c;
  a.reserve(steps);
  b.reserve(steps);
  c.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    a.push_back(Money::cents(27 + static_cast<std::int64_t>(i % 7)));
    b.push_back(Money::cents((i / 40) % 2 == 0 ? 31 : 210));
    c.push_back(Money::cents(150 + static_cast<std::int64_t>(i % 13)));
  }
  return zones({PriceSeries(0, kPriceStep, std::move(a)),
                PriceSeries(0, kPriceStep, std::move(b)),
                PriceSeries(0, kPriceStep, std::move(c))});
}

JobParams default_job() {
  JobParams job;
  job.remaining_compute = 8 * kHour;
  job.remaining_time = 16 * kHour;
  return job;
}

// --- proto ------------------------------------------------------------------

TEST(ServeProto, TraceInitRoundtrip) {
  TraceInitMsg m;
  m.start = 1200;
  m.step = 300;
  m.zone_names = {"us-east-1a", "us-east-1b"};
  m.samples = {{Money::cents(27), Money::cents(31)},
               {Money::cents(40), Money::cents(41)}};
  m.capacity_samples = 99;
  const std::string payload = encode_trace_init(m);
  EXPECT_EQ(msg_type(payload), MsgType::kTraceInit);
  const auto d = decode_trace_init(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->protocol, kProtocolVersion);
  EXPECT_EQ(d->start, m.start);
  EXPECT_EQ(d->step, m.step);
  EXPECT_EQ(d->zone_names, m.zone_names);
  EXPECT_EQ(d->samples, m.samples);
  EXPECT_EQ(d->capacity_samples, 99u);
}

TEST(ServeProto, TraceInitOverSixtyFourZonesIsRefused) {
  // The advisor keys zone subsets by a 64-bit mask: a wider trace must not
  // decode.
  const auto init_with = [](std::size_t num_zones) {
    TraceInitMsg m;
    m.step = 300;
    m.capacity_samples = 2;
    for (std::size_t z = 0; z < num_zones; ++z) {
      std::string name("z");
      name += std::to_string(z);
      m.zone_names.push_back(std::move(name));
      m.samples.push_back({Money::cents(27)});
    }
    return encode_trace_init(m);
  };
  EXPECT_TRUE(decode_trace_init(init_with(64)).has_value());
  EXPECT_FALSE(decode_trace_init(init_with(65)).has_value());
}

TEST(ServeProto, TickAndAckRoundtrip) {
  const std::string t = encode_tick(TickMsg{{Money::cents(33), Money::cents(44)}});
  const auto dt = decode_tick(t);
  ASSERT_TRUE(dt.has_value());
  EXPECT_EQ(dt->prices,
            (std::vector<Money>{Money::cents(33), Money::cents(44)}));
  const auto da = decode_tick_ack(encode_tick_ack(TickAckMsg{86700}));
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->end, 86700);
}

TEST(ServeProto, RegisterAndAdviseRoundtrip) {
  ModelSpec spec;
  spec.history_span = kDay;
  spec.max_states = 16;
  spec.policies = {PolicyKind::kMarkovDaly};
  const auto dr = decode_register(encode_register(RegisterMsg{spec}));
  ASSERT_TRUE(dr.has_value());
  EXPECT_EQ(dr->spec.spec_hash(), spec.spec_hash());

  AdviseMsg a;
  a.request_id = 77;
  a.spec_hash = spec.spec_hash();
  a.job = default_job();
  const auto da = decode_advise(encode_advise(a));
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->request_id, 77u);
  EXPECT_EQ(da->spec_hash, spec.spec_hash());
  EXPECT_EQ(da->job.remaining_compute, a.job.remaining_compute);
  EXPECT_EQ(da->job.on_demand_rate, a.job.on_demand_rate);
}

TEST(ServeProto, AdviceRoundtripIsExact) {
  Advice adv;
  adv.as_of = 86400;
  adv.bid = Money::cents(47);
  adv.zones = {0, 2};
  adv.policy = PolicyKind::kMarkovDaly;
  adv.predicted_cost = Money::dollars(7.93);
  adv.expected_uptime = 123456;
  adv.checkpoint_interval = 3921;
  const auto d = decode_advice(encode_advice(AdviceMsg{9, adv}));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->request_id, 9u);
  EXPECT_EQ(d->advice, adv);  // full bit-equality through the wire
}

TEST(ServeProto, StatsAndErrorRoundtrip) {
  StatsReplyMsg s;
  s.ticks = 1;
  s.advises = 2;
  s.batches = 3;
  s.max_batch = 4;
  s.models = 5;
  s.model_bytes = 6;
  s.evictions = 7;
  s.advise_p50_ns = 1234.5;
  s.advise_p99_ns = 6789.0;
  const auto ds = decode_stats_reply(encode_stats_reply(s));
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->max_batch, 4u);
  EXPECT_EQ(ds->advise_p50_ns, 1234.5);
  EXPECT_EQ(ds->advise_p99_ns, 6789.0);
  ASSERT_TRUE(decode_stats(encode_stats(StatsMsg{})).has_value());

  const auto de = decode_error(encode_error(ErrorMsg{42, "nope"}));
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(de->request_id, 42u);
  EXPECT_EQ(de->message, "nope");
}

TEST(ServeProto, MalformedPayloadsDecodeToNullopt) {
  EXPECT_FALSE(msg_type("abc").has_value());  // too short
  const std::string tick = encode_tick(TickMsg{{Money::cents(33)}});
  // Truncation at every prefix length must reject, never crash.
  for (std::size_t len = 0; len < tick.size(); ++len)
    EXPECT_FALSE(decode_tick(tick.substr(0, len)).has_value()) << len;
  // Trailing garbage is rejected too (decoders demand full consumption).
  EXPECT_FALSE(decode_tick(tick + "x").has_value());
  // Wrong tag: an advise payload is not a tick.
  EXPECT_FALSE(
      decode_tick(encode_advise(AdviseMsg{1, 2, default_job()})).has_value());
}

TEST(ServeProto, SpecHashIsOrderAndValueSensitive) {
  ModelSpec a;
  ModelSpec b;
  EXPECT_EQ(a.spec_hash(), b.spec_hash());
  b.max_states = 16;
  EXPECT_NE(a.spec_hash(), b.spec_hash());
  ModelSpec c;
  c.policies = {PolicyKind::kMarkovDaly, PolicyKind::kPeriodic};
  EXPECT_NE(a.spec_hash(), c.spec_hash());  // order matters
}

// --- tick store -------------------------------------------------------------

TEST(ServeTickStore, SeedsAppendsAndRejectsPastCapacity) {
  TickStore store(wavy_traces(10), /*capacity_samples=*/12);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.num_zones(), 3u);
  const SimTime end0 = store.end_time();

  const std::vector<Money> tick = {Money::cents(30), Money::cents(31),
                                   Money::cents(32)};
  EXPECT_EQ(store.append(tick), end0 + kPriceStep);
  EXPECT_EQ(store.append(tick), end0 + 2 * kPriceStep);
  EXPECT_EQ(store.size(), 12u);
  EXPECT_EQ(store.ticks(), 2u);
  EXPECT_THROW(store.append(tick), CheckFailure);  // capacity exhausted

  store.with_read([&](const ZoneTraceSet& traces) {
    EXPECT_EQ(traces.zone(0).size(), 12u);
    EXPECT_EQ(traces.zone(1).at(traces.end() - kPriceStep), Money::cents(31));
    return 0;
  });
}

TEST(ServeTickStore, RejectsCapacityBelowSeed) {
  EXPECT_THROW(TickStore(wavy_traces(10), 5), CheckFailure);
}

// --- registry ---------------------------------------------------------------

TEST(ServeRegistry, SharesOneEntryPerSpec) {
  ModelRegistry registry;
  ModelSpec spec;
  const auto a = registry.acquire(spec, 3);
  const auto b = registry.acquire(spec, 3);
  EXPECT_EQ(a.get(), b.get());  // same shared entry, not a copy
  EXPECT_EQ(registry.stats().entries, 1u);

  ModelSpec other;
  other.max_states = 8;
  const auto c = registry.acquire(other, 3);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.stats().entries, 2u);
  EXPECT_EQ(registry.find(spec.spec_hash()).get(), a.get());
  EXPECT_EQ(registry.find(0xdeadbeef), nullptr);
}

TEST(ServeRegistry, EvictsUnderPressureAndRebuildsTransparently) {
  ModelSpec spec_a;
  ModelSpec spec_b;
  spec_b.max_states = 8;
  // Capacity fits exactly one entry: acquiring the second evicts the first.
  ModelRegistry registry(spec_a.approx_bytes(3) + 100);
  const auto a = registry.acquire(spec_a, 3);
  const auto b = registry.acquire(spec_b, 3);
  EXPECT_EQ(registry.stats().evictions, 1u);
  EXPECT_EQ(registry.find(spec_a.spec_hash()), nullptr);
  // The held pointer stays alive (shared ownership), and re-acquiring
  // builds a FRESH entry — correctness is unaffected because advice is a
  // pure function of (trace, spec, job); see the bit-identity tests.
  EXPECT_EQ(a->spec.spec_hash(), spec_a.spec_hash());
  const auto a2 = registry.acquire(spec_a, 3);
  EXPECT_NE(a2.get(), a.get());
}

// --- advisor ----------------------------------------------------------------

TEST(ServeAdvisor, MatchesTheOfflineAdaptiveDecisionExactly) {
  // The serve answer must be the offline Adaptive decision: a fresh
  // HistoryStats over the same window, searched by best_permutation,
  // with the Markov-Daly knobs computed the way the engine's policy does.
  const ZoneTraceSet traces = wavy_traces(400);
  ModelSpec spec;
  spec.history_span = kDay;
  const JobParams job = default_job();
  const Advice adv = advise_offline(spec, traces, job);

  const SimTime now = traces.end() - traces.step();
  const SimTime from = now - spec.history_span;
  const HistoryStats hist(traces, from, now, spec.bid_grid);
  EstimatorInputs in;
  in.remaining_compute = job.remaining_compute;
  in.remaining_time = job.remaining_time;
  in.checkpoint_cost = job.checkpoint_cost;
  in.restart_cost = job.restart_cost;
  in.mean_queue_delay = job.mean_queue_delay;
  in.on_demand_rate = job.on_demand_rate;
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    in.current_prices.push_back(traces.zone(z).at(now).to_double());
  const PermutationEstimate best =
      best_permutation(hist, spec.max_zones, spec.policies, in);

  EXPECT_EQ(adv.as_of, now);
  EXPECT_EQ(adv.bid, best.bid);
  EXPECT_EQ(adv.zones, best.zones);
  EXPECT_EQ(adv.policy, best.policy);
  EXPECT_EQ(adv.predicted_cost, best.predicted_cost);

  // Knob oracle: the non-incremental Markov fit + closed-form uptime.
  Duration uptime = 0;
  for (std::size_t zone : adv.zones) {
    const MarkovModel model =
        build_markov_model(traces.zone(zone).view(from, now), spec.max_states);
    uptime += expected_uptime(model, traces.zone(zone).at(now), adv.bid);
  }
  EXPECT_EQ(adv.expected_uptime, uptime);
  if (adv.policy == PolicyKind::kMarkovDaly && uptime > 0)
    EXPECT_EQ(adv.checkpoint_interval, daly_interval(job.checkpoint_cost, uptime));
  else
    EXPECT_EQ(adv.checkpoint_interval, 0);
}

TEST(ServeAdvisor, SlidEntryIsBitIdenticalToOfflineAcrossLiveGrowth) {
  // The tentpole contract: a ModelEntry slid incrementally tick after tick
  // answers EXACTLY what a from-scratch advisor over the same trace
  // answers — every field, every time.
  const std::size_t kSeed = 300;
  const std::size_t kTotal = 420;
  const ZoneTraceSet full = wavy_traces(kTotal);

  TickStore store(full.window(full.start(),
                              full.start() + kPriceStep * static_cast<Duration>(
                                                              kSeed)),
                  kTotal);
  ModelSpec spec;
  spec.history_span = kDay;
  ModelEntry slid(spec);
  const JobParams job = default_job();

  std::vector<Money> prices(full.num_zones());
  std::size_t advises = 0;
  for (std::size_t i = kSeed; i < kTotal; ++i) {
    for (std::size_t z = 0; z < full.num_zones(); ++z)
      prices[z] = full.zone(z).view().sample(i);
    store.append(prices);
    store.with_read([&](const ZoneTraceSet& live) {
      const Advice incremental = compute_advice(slid, live, job);
      const Advice offline = advise_offline(spec, live, job);
      ASSERT_EQ(incremental, offline) << "diverged at sample " << i;
      ++advises;
    });
  }
  EXPECT_EQ(advises, kTotal - kSeed);
  EXPECT_EQ(slid.advises, advises);
  // The slid entry really was incremental: one initial build, no rebuild
  // churn while the pre-reserved storage grew in place.
  ASSERT_TRUE(slid.hist.has_value());
  EXPECT_EQ(slid.hist->full_rebuilds(), 1u);
}

TEST(ServeAdvisor, DifferentJobsShareOneSlidModel) {
  // Tenants with different job parameters share the model state; each
  // still gets exactly its own offline answer.
  const ZoneTraceSet traces = wavy_traces(400);
  ModelSpec spec;
  spec.history_span = kDay;
  ModelEntry shared(spec);

  JobParams tight = default_job();
  tight.remaining_time = 9 * kHour;
  JobParams loose = default_job();
  loose.remaining_time = 40 * kHour;
  JobParams pricey = default_job();
  pricey.on_demand_rate = Money::dollars(4.80);

  for (const JobParams& job : {tight, loose, pricey}) {
    const Advice got = compute_advice(shared, traces, job);
    const Advice want = advise_offline(spec, traces, job);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(shared.advises, 3u);
}

TEST(ServeAdvisor, ApproxBytesScalesWithSpec) {
  ModelSpec small;
  small.max_states = 8;
  small.history_span = kDay;
  ModelSpec big;
  big.max_states = 64;
  big.history_span = 4 * kDay;
  EXPECT_LT(small.approx_bytes(3), big.approx_bytes(3));
  EXPECT_LT(big.approx_bytes(1), big.approx_bytes(3));
}

}  // namespace
}  // namespace redspot::serve
