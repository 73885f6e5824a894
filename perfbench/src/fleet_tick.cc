// fleet_tick: an embedded fleet monitor (examples/fleet_separation at
// scale). 2048 local adaptive r=32 streams sit on a 64x32 grid of cells.
// Most drift around their cell; one in eight patrols a circle or ellipse
// route (every fix is a hull vertex); a few escorts fly inside a
// neighbour's cell (containment events) and a few drifters move into the
// next cell (separability events). Each tick a seeded 1/16 of the streams
// receive a batch of 64 fixes, then Poll() runs under WatchAllPairs, all on
// one thread.
//
// Checks, outside the timed tick: every Poll event against brute-force
// hulls of everything each stream received; every tenth tick, the state
// the events leave for each escort and drifter pair against a fresh
// certified evaluation and against brute force (so a missing event fails
// too); and eight certified diameters per tick against the brute-force
// diameter.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "multi/stream_group.h"
#include "queries/certified.h"

namespace perfbench {
namespace {

using streamhull::AdaptiveHullStats;
using streamhull::Certainty;
using streamhull::CertifiedContainment;
using streamhull::CertifiedDiameter;
using streamhull::CertifiedSeparation;
using streamhull::EngineKind;
using streamhull::EngineOptions;
using streamhull::FleetPollStats;
using streamhull::PairEvent;
using streamhull::Rng;
using streamhull::StreamGroup;
using streamhull::SummaryView;

constexpr int kStreams = 2048;
constexpr int kGridWidth = 64;
constexpr double kSpacing = 3.0;
constexpr int kStreamsPerTick = kStreams / 16;
constexpr size_t kFixesPerBatch = 64;
constexpr int kWarmBatches = 4;
constexpr int kQueriesPerTick = 8;
constexpr int kWaypoints = 360;
constexpr int kSetupRepeats = 3;
/// The escort and drifter pairs are checked for completeness this often.
constexpr uint64_t kPairCheckEvery = 10;
/// multi.events_per_tick counts over this fixed prefix, so it repeats
/// exactly for a seed whatever the run length.
constexpr uint64_t kEventTicks = 1000;
constexpr double kTwoPi = 6.283185307179586476925286766559;

enum class Kind { kDrift, kPatrol, kEscort, kDrifter };

// One vehicle stream's fix generator; the system sees only its output.
struct StreamSim {
  Kind kind = Kind::kDrift;
  Point2 center;
  Point2 wander;
  std::vector<Point2> route;  // Patrol waypoints.
  Rng rng{0};

  Point2 Disk(double radius) {
    const double r = radius * std::sqrt(rng.NextDouble());
    const double t = kTwoPi * rng.NextDouble();
    return Point2{r * std::cos(t), r * std::sin(t)};
  }

  void Batch(std::vector<Point2>* out) {
    out->clear();
    switch (kind) {
      case Kind::kDrift:
        wander = wander + Point2{rng.Uniform(-0.02, 0.02),
                                 rng.Uniform(-0.02, 0.02)};
        if (wander.Norm() > 0.25) wander = wander * (0.25 / wander.Norm());
        for (size_t i = 0; i < kFixesPerBatch; ++i) {
          out->push_back(center + wander + Disk(0.9));
        }
        break;
      case Kind::kPatrol:
        for (size_t i = 0; i < kFixesPerBatch; ++i) {
          out->push_back(route[rng.UniformInt(route.size())]);
        }
        break;
      case Kind::kEscort:
        for (size_t i = 0; i < kFixesPerBatch; ++i) {
          out->push_back(center + Disk(0.2));
        }
        break;
      case Kind::kDrifter:
        center.x += 0.04;
        for (size_t i = 0; i < kFixesPerBatch; ++i) {
          out->push_back(center + Disk(0.9));
        }
        break;
    }
  }
};

std::vector<StreamSim> MakeFleet(uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamSim> fleet(kStreams);
  std::vector<int> free;  // Streams that are neither patrols nor stream 0.
  for (int i = 0; i < kStreams; ++i) {
    StreamSim& s = fleet[static_cast<size_t>(i)];
    s.rng.Seed(seed * 1000003u + static_cast<uint64_t>(i));
    s.center = Point2{(i % kGridWidth) * kSpacing, (i / kGridWidth) * kSpacing};
    if (i % 8 != 7) {
      if (i > 0) free.push_back(i);
      continue;
    }
    s.kind = Kind::kPatrol;
    const double b = rng.NextDouble() < 0.5 ? 1.0 : rng.Uniform(0.4, 0.8);
    const double rot = rng.Uniform(0, kTwoPi);
    for (int k = 0; k < kWaypoints; ++k) {
      const double t = kTwoPi * k / kWaypoints;
      s.route.push_back(s.center + streamhull::Rotate(Point2{std::cos(t), b * std::sin(t)}, rot));
    }
  }
  // Exactly 1/32 of the fleet escorts (flies inside the previous stream's
  // cell) and 1/32 drifts into the next cell; which ones is seeded.
  for (size_t k = 0; k < 2 * kStreams / 32; ++k) {
    std::swap(free[k], free[k + rng.UniformInt(free.size() - k)]);
    StreamSim& s = fleet[static_cast<size_t>(free[k])];
    if (k < kStreams / 32) {
      s.kind = Kind::kEscort;
      s.center = fleet[static_cast<size_t>(free[k] - 1)].center;
    } else {
      s.kind = Kind::kDrifter;
    }
  }
  return fleet;
}

std::string Name(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "s%04d", i);
  return buf;
}

int IndexOf(const std::string& name) { return std::atoi(name.c_str() + 1); }

// Each escort with the stream whose cell it flies in, and each drifter
// with the stream of the cell it drifts into.
std::vector<std::pair<int, int>> EventPairs(const std::vector<StreamSim>& fleet) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kStreams; ++i) {
    const Kind kind = fleet[static_cast<size_t>(i)].kind;
    if (kind == Kind::kEscort) pairs.push_back({i - 1, i});
    if (kind == Kind::kDrifter && (i + 1) % kGridWidth != 0) pairs.push_back({i, i + 1});
  }
  return pairs;
}

// How far the view's outer polygon reaches beyond its inner one: the true
// hull lies between them, so a brute-force answer whose margin exceeds the
// two views' bands together must be certified. Infinite for a degenerate
// inner polygon.
double Band(const SummaryView& view) {
  const std::vector<Point2>& inner = view.inner().vertices();
  if (inner.size() < 3) return INFINITY;
  double band = 0;
  for (const Point2& v : view.outer().vertices()) band = std::max(band, -Depth(v, inner));
  return band;
}

// The least depth of \p a's vertices inside \p b (negative: some vertex
// lies outside), and the greatest.
std::pair<double, double> DepthRange(const std::vector<Point2>& a,
                                     const std::vector<Point2>& b) {
  double lo = INFINITY, hi = -INFINITY;
  for (const Point2& v : a) {
    const double d = Depth(v, b);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return {lo, hi};
}

}  // namespace

void RunFleetTick(const Args& args, Result* result) {
  Tracer tracer(args.trace);
  Result& res = *result;

  // Inputs: the fleet and its warm-up fixes, made before anything is timed.
  std::vector<StreamSim> fleet = MakeFleet(args.seed);
  std::vector<std::vector<Point2>> warm(kStreams * kWarmBatches);
  for (int i = 0; i < kStreams; ++i) {
    for (int b = 0; b < kWarmBatches; ++b) {
      fleet[static_cast<size_t>(i)].Batch(&warm[static_cast<size_t>(i * kWarmBatches + b)]);
    }
  }
  std::vector<std::string> names(kStreams);
  for (int i = 0; i < kStreams; ++i) names[static_cast<size_t>(i)] = Name(i);
  const double rss_base_mb = PeakRssMb();

  // Set-up: build the group, warm every stream, run the baseline poll.
  // Repeated; the median is setup_s and the last group is the one timed.
  EngineOptions options;
  options.hull.r = 32;
  std::unique_ptr<StreamGroup> group;
  std::vector<double> setup_s;
  std::vector<PairEvent> setup_events;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    group.reset();
    const auto t0 = Clock::now();
    group = std::make_unique<StreamGroup>(options, EngineKind::kAdaptive);
    bool ok = group->WatchAllPairs().ok();
    for (int i = 0; i < kStreams && ok; ++i) {
      ok = group->AddStream(names[static_cast<size_t>(i)]).ok();
      for (int b = 0; b < kWarmBatches && ok; ++b) {
        ok = group->InsertBatch(names[static_cast<size_t>(i)],
                                warm[static_cast<size_t>(i * kWarmBatches + b)])
                 .ok();
      }
    }
    setup_events = group->Poll();
    setup_s.push_back(SecondsSince(t0));
    ++res.attempted;
    res.Check(ok, "fleet set-up failed");
    if (!ok) return;
  }

  // Brute-force reference: the hull of everything each stream received.
  std::vector<std::vector<Point2>> ref(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    std::vector<Point2> all;
    for (int b = 0; b < kWarmBatches; ++b) {
      const auto& w = warm[static_cast<size_t>(i * kWarmBatches + b)];
      all.insert(all.end(), w.begin(), w.end());
    }
    ref[static_cast<size_t>(i)] = ReferenceHull(std::move(all));
  }
  warm.clear();
  warm.shrink_to_fit();

  // Every pair's predicate states as the events leave them; a pair no
  // event has touched holds the default (certainly separable, certainly
  // not contained).
  struct PredicateState {
    bool certain = true;
    bool value = false;
  };
  std::map<std::pair<int, int>, PredicateState> separable, contained;
  auto state = [&](bool separability, int a, int b) -> PredicateState& {
    if (separability) {
      return separable.try_emplace({std::min(a, b), std::max(a, b)}, PredicateState{true, true})
          .first->second;
    }
    return contained.try_emplace({a, b}, PredicateState{true, false}).first->second;
  };
  auto check_events = [&](const std::vector<PairEvent>& events) {
    for (const PairEvent& e : events) {
      const int ia = IndexOf(e.first), ib = IndexOf(e.second);
      const auto& a = ref[static_cast<size_t>(ia)];
      const auto& b = ref[static_cast<size_t>(ib)];
      const std::string what = e.first + "/" + e.second;
      switch (e.kind) {
        case PairEvent::Kind::kSeparabilityLost:
          res.Check(HullsIntersect(a, b), "separability lost but hulls disjoint: " + what);
          state(true, ia, ib) = {true, false};
          break;
        case PairEvent::Kind::kSeparabilityGained:
          res.Check(!HullsIntersect(a, b), "separability gained but hulls meet: " + what);
          state(true, ia, ib) = {true, true};
          break;
        case PairEvent::Kind::kContainmentStarted:
          res.Check(HullInside(a, b), "containment started but not inside: " + what);
          state(false, ia, ib) = {true, true};
          break;
        case PairEvent::Kind::kContainmentEnded:
          res.Check(!HullInside(a, b), "containment ended but still inside: " + what);
          state(false, ia, ib) = {true, false};
          break;
        case PairEvent::Kind::kCertaintyLost:
        case PairEvent::Kind::kCertaintyGained:
          // Band events claim no truth value; they only mark the state.
          state(e.predicate == PairEvent::Predicate::kSeparability, ia, ib).certain =
              e.kind == PairEvent::Kind::kCertaintyGained;
          break;
      }
    }
  };
  check_events(setup_events);

  // Completeness: the state Poll's events leave for a pair must equal a
  // fresh certified evaluation (Poll is answer-preserving), and must agree
  // with brute force wherever the truth clears the uncertainty band.
  const std::vector<std::pair<int, int>> event_pairs = EventPairs(fleet);
  auto expect = [&](const PredicateState& st, Certainty now, int brute,
                    const std::string& what) {
    const bool matches = now == Certainty::kUnknown
                             ? !st.certain
                             : st.certain && st.value == (now == Certainty::kTrue);
    res.Check(matches, "events leave " + what + " " +
                           (st.certain ? (st.value ? "true" : "false") : "uncertain") +
                           " but it evaluates " +
                           (now == Certainty::kTrue    ? "true"
                            : now == Certainty::kFalse ? "false"
                                                       : "unknown"));
    if (brute >= 0) {
      res.Check(st.certain && st.value == (brute == 1),
                "events leave " + what + " uncertified or wrong though brute force is " +
                    (brute == 1 ? "true" : "false") + " beyond the band");
    }
  };
  auto check_pairs = [&] {
    for (const auto& [a, b] : event_pairs) {
      SummaryView va, vb;
      res.Check(group->View(names[static_cast<size_t>(a)], &va).ok() &&
                    group->View(names[static_cast<size_t>(b)], &vb).ok(),
                "View failed");
      const double band = Band(va) + Band(vb) + 1e-9;
      const auto& ra = ref[static_cast<size_t>(a)];
      const auto& rb = ref[static_cast<size_t>(b)];
      const auto [ab_lo, ab_hi] = DepthRange(ra, rb);
      const auto [ba_lo, ba_hi] = DepthRange(rb, ra);
      const std::string pair = names[static_cast<size_t>(a)] + "/" + names[static_cast<size_t>(b)];
      const int sep_truth = BruteSeparation(ra, rb) > band         ? 1
                            : std::max(ab_hi, ba_hi) > band        ? 0
                                                                   : -1;
      expect(state(true, a, b), CertifiedSeparation(va, vb).separable, sep_truth,
             "separability of " + pair);
      expect(state(false, a, b), CertifiedContainment(va, vb).contained,
             ab_lo > band ? 1 : ab_lo < -band ? 0 : -1, "containment of " + pair);
      expect(state(false, b, a), CertifiedContainment(vb, va).contained,
             ba_lo > band ? 1 : ba_lo < -band ? 0 : -1,
             "containment of " + names[static_cast<size_t>(b)] + "/" + names[static_cast<size_t>(a)]);
    }
  };
  check_pairs();

  // The timed ticks.
  Rng sched(args.seed ^ 0x5eed5eedULL);
  std::vector<int> order(kStreams);
  for (int i = 0; i < kStreams; ++i) order[static_cast<size_t>(i)] = i;
  std::vector<std::vector<Point2>> batches(kStreamsPerTick);
  std::vector<int> chosen(kStreamsPerTick);
  std::vector<Clock::time_point> batch_start(kStreamsPerTick);

  std::vector<double> tick_ms, tick_ms_traced, update_us, ack_ms, query_ms;
  std::vector<double> rel_width;
  double busy_s = 0;
  uint64_t points = 0, batches_in = 0, allocs = 0, events_prefix = 0;
  uint64_t possible_pairs = 0, refreshed = 0;
  const AdaptiveHullStats stats0 = group->AggregateIngestStats();
  const FleetPollStats fleet0 = group->fleet_stats();
  const uint64_t views0 = group->view_materializations();
  bool inject_diameter = args.inject == "diameter_ulp";
  const bool inject_lost_events = args.inject == "lost_events";

  const uint64_t min_ticks = args.trace ? 2 * kMinP99Samples : kMinP99Samples;
  const auto run_start = Clock::now();
  uint64_t tick = 0;
  for (; (SecondsSince(run_start) < args.seconds || tick < min_ticks) &&
         SecondsSince(run_start) < 150;
       ++tick) {
    // Inputs for this tick (untimed).
    for (int k = 0; k < kStreamsPerTick; ++k) {
      const size_t j = static_cast<size_t>(k) + sched.UniformInt(kStreams - k);
      std::swap(order[static_cast<size_t>(k)], order[j]);
      chosen[static_cast<size_t>(k)] = order[static_cast<size_t>(k)];
      fleet[static_cast<size_t>(chosen[static_cast<size_t>(k)])].Batch(&batches[static_cast<size_t>(k)]);
    }
    const bool traced = tracer.on() && tick % 2 == 1;
    tracer.set_enabled(traced);

    const auto t0 = Clock::now();
    std::vector<PairEvent> events;
    {
      ScopedSpan tick_span(tracer, "tick");
      for (int k = 0; k < kStreamsPerTick; ++k) {
        const size_t ks = static_cast<size_t>(k);
        const uint64_t a0 = AllocCount();
        batch_start[ks] = Clock::now();
        bool ok;
        {
          ScopedSpan span(tracer, "core.InsertBatch");
          ok = group->InsertBatch(names[static_cast<size_t>(chosen[ks])], batches[ks]).ok();
        }
        update_us.push_back(Us(batch_start[ks], Clock::now()));
        allocs += AllocCount() - a0;
        ++res.attempted;
        res.Check(ok, "InsertBatch failed");
      }
      ScopedSpan span(tracer, "multi.Poll");
      events = group->Poll();
    }
    const auto t1 = Clock::now();
    if (inject_lost_events) events.clear();  // A Poll that reports nothing.
    ++res.attempted;
    (traced ? tick_ms_traced : tick_ms).push_back(Us(t0, t1) / 1e3);
    busy_s += Us(t0, t1) / 1e6;
    for (int k = 0; k < kStreamsPerTick; ++k) {
      ack_ms.push_back(Us(batch_start[static_cast<size_t>(k)], t1) / 1e3);
    }
    points += kStreamsPerTick * kFixesPerBatch;
    batches_in += kStreamsPerTick;
    possible_pairs += group->fleet_stats().last_possible_pairs;
    refreshed += group->fleet_stats().last_streams_refreshed;
    if (tick < kEventTicks) events_prefix += events.size();

    // Checks (untimed): reference hulls, events, certified diameters.
    tracer.set_enabled(false);
    for (int k = 0; k < kStreamsPerTick; ++k) {
      auto& h = ref[static_cast<size_t>(chosen[static_cast<size_t>(k)])];
      h = ExtendHull(h, batches[static_cast<size_t>(k)]);
    }
    check_events(events);
    if (tick % kPairCheckEvery == kPairCheckEvery - 1) check_pairs();
    tracer.set_enabled(traced);
    for (int q = 0; q < kQueriesPerTick; ++q) {
      const int i = static_cast<int>(sched.UniformInt(kStreams));
      const auto tq = Clock::now();
      SummaryView view;
      bool ok;
      {
        ScopedSpan span(tracer, "multi.View");
        ok = group->View(names[static_cast<size_t>(i)], &view).ok();
      }
      streamhull::Interval d;
      {
        ScopedSpan span(tracer, "queries.CertifiedDiameter");
        d = CertifiedDiameter(view).value;
      }
      query_ms.push_back(Us(tq, Clock::now()) / 1e3);
      ++res.attempted;
      res.Check(ok, "View failed");
      const double truth = BruteDiameter(ref[static_cast<size_t>(i)]);
      if (inject_diameter) {
        d.hi = std::nextafter(truth, -INFINITY);
        inject_diameter = false;
      }
      res.Check(d.lo <= truth && truth <= d.hi,
                "diameter interval misses brute force on " + names[static_cast<size_t>(i)] +
                    ": " + Bracket(d.lo, truth, d.hi));
      if (d.hi > 0) rel_width.push_back((d.hi - d.lo) / d.hi);
    }
  }
  tracer.set_enabled(false);
  const double ticks = static_cast<double>(tick);

  double ref_mb = 0;
  for (const auto& h : ref) ref_mb += static_cast<double>(h.capacity() * sizeof(Point2));
  ref_mb /= 1024.0 * 1024.0;

  res.notes.push_back("fleet: " + std::to_string(tick) + " ticks, " +
                      std::to_string(events_prefix) + " events in the first " +
                      std::to_string(std::min<uint64_t>(tick, kEventTicks)) + " (" +
                      std::to_string(setup_events.size()) + " at the baseline poll)");
  res.Set("loadgen.update_p99_us", Quantile(update_us, 0.99), update_us.size());
  res.Set("loadgen.tick_p99_ms", Quantile(tick_ms, 0.99), tick_ms.size());
  res.Set("loadgen.ack_p99_ms", Quantile(ack_ms, 0.99), ack_ms.size());
  res.Set("loadgen.query_p99_ms", Quantile(query_ms, 0.99), query_ms.size());
  if (!args.trace) {
    res.Set("setup_s", Quantile(setup_s, 0.5), setup_s.size());
    res.Set("ingest_pts_per_s", static_cast<double>(points) / busy_s);
    res.Set("tick_p50_ms", Quantile(tick_ms, 0.5), tick_ms.size());
    res.Set("ack_p50_ms", Quantile(ack_ms, 0.5), ack_ms.size());
    res.Set("query_p50_ms", Quantile(query_ms, 0.5), query_ms.size());
    res.Set("frames_per_s", static_cast<double>(batches_in) / busy_s);
    res.Set("rss_mb", PeakRssMb() - rss_base_mb - ref_mb);
    res.Set("diam_rel_width", Mean(rel_width), rel_width.size());
    return;
  }

  // Per-layer ledger from the traced ticks and the layers' counters.
  auto ledger = tracer.Summarize();
  SetIngestCounters(stats0, group->AggregateIngestStats(), &res);
  res.Set("core.allocs_per_pt", static_cast<double>(allocs) / static_cast<double>(points));
  auto& ins = ledger["core.InsertBatch"];
  res.Set("core.insert_ns_per_pt",
          ins.total_us * 1e3 / static_cast<double>(ins.count * kFixesPerBatch), ins.count);
  res.Set("core.insert_batch_us_p99", Quantile(ins.durations_us, 0.99), ins.count);
  auto& poll = ledger["multi.Poll"];
  res.Set("multi.poll_ms_p50", Quantile(poll.durations_us, 0.5) / 1e3, poll.count);
  res.Set("multi.poll_ms_p99", Quantile(poll.durations_us, 0.99) / 1e3, poll.count);
  const FleetPollStats& f = group->fleet_stats();
  res.Set("multi.candidate_ratio",
          static_cast<double>(f.total_candidates - fleet0.total_candidates) /
              static_cast<double>(possible_pairs));
  res.Set("multi.pairs_evaluated_per_tick",
          static_cast<double>(f.total_pairs_evaluated - fleet0.total_pairs_evaluated) / ticks);
  res.Set("multi.streams_refreshed_per_tick", static_cast<double>(refreshed) / ticks);
  res.Set("multi.view_materializations_per_tick",
          static_cast<double>(group->view_materializations() - views0) / ticks);
  res.Set("multi.events_per_tick",
          static_cast<double>(events_prefix) /
              static_cast<double>(std::min<uint64_t>(tick, kEventTicks)));
  auto& view = ledger["multi.View"];
  res.Set("multi.view_us_p50", Quantile(view.durations_us, 0.5), view.count);
  auto& diam = ledger["queries.CertifiedDiameter"];
  res.Set("queries.diameter_us_p50", Quantile(diam.durations_us, 0.5), diam.count);
  res.Set("loadgen.tracing_overhead_ratio",
          Quantile(tick_ms_traced, 0.5) / Quantile(tick_ms, 0.5));
  const double share = tracer.ChildShare("tick");
  res.Set("trace.child_share", share);
  res.Check(share >= 0.95 && share <= 1.0,
            "trace reconciliation: ingest + poll spans cover " +
                std::to_string(share) + " of the tick (want 0.95..1)");
  tracer.Write("fleet_tick-seed" + std::to_string(args.seed));
}

}  // namespace perfbench
