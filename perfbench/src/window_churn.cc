// window_churn: a rolling-window edge producer. A handful of windowed
// engines (count window W=1000, K=8 buckets, adaptive r=64 inside) run
// over drift and orbit streams. Each update inserts a batch of ~100 points,
// produces the next delta frame through DeltaSender and acknowledges it.
// Every W/K points a bucket rolls over and a fresh sub-engine warms up.
//
// Checks, outside the timed update: every frame is decoded and chained the
// way a sink would, and the chained view must equal a fresh full encode of
// the engine; one certified diameter per update must contain the
// brute-force diameter of the last W points.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/hull_engine.h"
#include "core/snapshot.h"
#include "queries/certified.h"
#include "server/delta_sender.h"
#include "stream/generators.h"

namespace perfbench {
namespace {

using streamhull::AdaptiveHullStats;
using streamhull::DecodedSummaryView;
using streamhull::DeltaSender;
using streamhull::EngineKind;
using streamhull::EngineOptions;
using streamhull::HullEngine;
using streamhull::Rng;

constexpr int kEngines = 4;
constexpr uint64_t kWindow = 1000;
constexpr uint32_t kBuckets = 8;
constexpr int kSetupRepeats = 5;
constexpr double kTwoPi = 6.283185307179586476925286766559;

// Drift (a correlated walk) for even engines, orbit (a point circling a
// drifting centre, so the window holds a crescent) for odd ones.
struct StreamSim {
  bool orbit = false;
  std::unique_ptr<streamhull::DriftWalkGenerator> drift;
  Rng rng{0};
  Point2 center;
  double heading = 0;
  uint64_t i = 0;

  Point2 Next() {
    if (!orbit) return drift->Next();
    heading += rng.Uniform(-0.05, 0.05);
    center = center + Point2{std::cos(heading), std::sin(heading)} * 0.002;
    const double phase = kTwoPi * static_cast<double>(i++) / 512.0;
    return center + Point2{std::cos(phase), std::sin(phase)};
  }
};

bool SameView(const DecodedSummaryView& a, const DecodedSummaryView& b) {
  if (a.generation != b.generation || a.samples.size() != b.samples.size() ||
      a.slacks != b.slacks) {
    return false;
  }
  for (size_t i = 0; i < a.samples.size(); ++i) {
    if (!(a.samples[i].direction == b.samples[i].direction) ||
        !(a.samples[i].point == b.samples[i].point)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunWindowChurn(const Args& args, Result* result) {
  Tracer tracer(args.trace);
  Result& res = *result;

  EngineOptions options;
  options.hull.r = 64;
  options.window_points = kWindow;
  options.window_buckets = kBuckets;

  // Inputs: per-engine generators and one warm-up window each.
  Rng rng(args.seed);
  std::vector<StreamSim> sims(kEngines);
  std::vector<std::vector<Point2>> warm(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    StreamSim& s = sims[static_cast<size_t>(e)];
    s.orbit = e % 2 == 1;
    s.rng.Seed(args.seed * 7919u + static_cast<uint64_t>(e));
    s.drift = std::make_unique<streamhull::DriftWalkGenerator>(
        args.seed * 104729u + static_cast<uint64_t>(e), 0.01);
    for (uint64_t k = 0; k < kWindow; ++k) warm[static_cast<size_t>(e)].push_back(s.Next());
  }
  const double rss_base_mb = PeakRssMb();

  // Set-up: build and warm the engines, ship and ack the first-contact
  // frames. Repeated; the median is setup_s and the last set is timed.
  std::vector<std::unique_ptr<HullEngine>> engines;
  std::vector<std::unique_ptr<DeltaSender>> senders;
  std::vector<DecodedSummaryView> sink(kEngines);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    senders.clear();
    engines.clear();
    const auto t0 = Clock::now();
    std::vector<std::string> first(kEngines);
    for (int e = 0; e < kEngines; ++e) {
      engines.push_back(streamhull::MakeEngine(EngineKind::kWindowed, options));
      senders.push_back(std::make_unique<DeltaSender>(engines.back().get()));
      engines.back()->InsertBatch(warm[static_cast<size_t>(e)]);
      DeltaSender::Frame frame;
      (void)senders.back()->NextFrame(&frame);
      senders.back()->OnAck(frame.generation);
      first[static_cast<size_t>(e)] = std::move(frame.bytes);
    }
    setup_s.push_back(SecondsSince(t0));
    for (int e = 0; e < kEngines; ++e) {
      ++res.attempted;
      res.Check(streamhull::DecodeSummaryView(first[static_cast<size_t>(e)], &sink[static_cast<size_t>(e)]).ok(),
                "first-contact frame does not decode");
    }
  }
  std::vector<std::deque<Point2>> last_w(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    last_w[static_cast<size_t>(e)].assign(warm[static_cast<size_t>(e)].begin(), warm[static_cast<size_t>(e)].end());
  }
  auto sum_stats = [&] {
    AdaptiveHullStats s;
    for (const auto& eng : engines) AddStats(eng->stats(), &s);
    return s;
  };
  const AdaptiveHullStats stats0 = sum_stats();
  uint64_t frames0 = 0, full0 = 0;
  for (const auto& s : senders) {
    frames0 += s->stats().frames;
    full0 += s->stats().full_frames;
  }

  std::vector<double> update_us, update_us_traced, round_ms, query_ms, rel_width;
  double busy_s = 0, round_acc_ms = 0;
  uint64_t points = 0, traced_points = 0, frames = 0, allocs = 0;
  bool inject_diameter = args.inject == "diameter_ulp";
  std::vector<Point2> batch;

  const uint64_t min_updates = kEngines * kMinP99Samples * (args.trace ? 2 : 1);
  const auto run_start = Clock::now();
  uint64_t update = 0;
  for (; (SecondsSince(run_start) < args.seconds || update < min_updates) &&
         SecondsSince(run_start) < 150;
       ++update) {
    const size_t e = update % kEngines;
    batch.resize(80 + rng.UniformInt(41));
    for (Point2& p : batch) p = sims[e].Next();
    const bool traced = tracer.on() && (update / kEngines) % 2 == 1;  // Whole rounds.
    tracer.set_enabled(traced);

    DeltaSender::Frame frame;
    const auto t0 = Clock::now();
    {
      ScopedSpan update_span(tracer, "update");
      const uint64_t a0 = AllocCount();
      {
        ScopedSpan span(tracer, "core.InsertBatch");
        engines[e]->InsertBatch(batch);
      }
      allocs += AllocCount() - a0;
      {
        ScopedSpan span(tracer, "core.NextFrame");
        res.Check(senders[e]->NextFrame(&frame).ok(), "NextFrame refused");
      }
      ScopedSpan span(tracer, "core.OnAck");
      senders[e]->OnAck(frame.generation);
    }
    const double us = Us(t0, Clock::now());
    (traced ? update_us_traced : update_us).push_back(us);
    busy_s += us / 1e6;
    round_acc_ms += us / 1e3;
    if (e == kEngines - 1) {
      round_ms.push_back(round_acc_ms);
      round_acc_ms = 0;
    }
    points += batch.size();
    if (traced) traced_points += batch.size();
    ++frames;
    res.attempted += 2;

    // Sink-side checks (untimed).
    tracer.set_enabled(false);
    auto& w = last_w[e];
    w.insert(w.end(), batch.begin(), batch.end());
    while (w.size() > kWindow) w.pop_front();
    const streamhull::Status st =
        frame.is_delta ? streamhull::ApplySummaryDelta(frame.bytes, &sink[e])
                       : streamhull::DecodeSummaryView(frame.bytes, &sink[e]);
    res.Check(st.ok(), "frame does not apply: " + st.ToString());
    DecodedSummaryView fresh;
    res.Check(streamhull::DecodeSummaryView(streamhull::EncodeSummaryView(*engines[e]), &fresh).ok() &&
                  SameView(sink[e], fresh) && sink[e].generation == frame.generation,
              "delta chain diverged from the engine");

    tracer.set_enabled(traced);
    const auto tq = Clock::now();
    streamhull::Interval d;
    {
      ScopedSpan span(tracer, "core.SummaryView");
      const streamhull::SummaryView view(*engines[e]);
      ScopedSpan qspan(tracer, "queries.CertifiedDiameter");
      d = streamhull::CertifiedDiameter(view).value;
    }
    query_ms.push_back(Us(tq, Clock::now()) / 1e3);
    const double truth = BruteDiameter(ReferenceHull(std::vector<Point2>(w.begin(), w.end())));
    if (inject_diameter) {
      d.hi = std::nextafter(truth, -INFINITY);
      inject_diameter = false;
    }
    res.Check(d.lo <= truth && truth <= d.hi,
              "diameter interval misses the last-W brute force: " + Bracket(d.lo, truth, d.hi));
    if (d.hi > 0) rel_width.push_back((d.hi - d.lo) / d.hi);
  }
  tracer.set_enabled(false);

  std::vector<double> ack_ms;
  for (double us : update_us) ack_ms.push_back(us / 1e3);
  res.Set("loadgen.update_p99_us", Quantile(update_us, 0.99), update_us.size());
  res.Set("loadgen.tick_p99_ms", Quantile(round_ms, 0.99), round_ms.size());
  res.Set("loadgen.ack_p99_ms", Quantile(ack_ms, 0.99), ack_ms.size());
  res.Set("loadgen.query_p99_ms", Quantile(query_ms, 0.99), query_ms.size());
  if (!args.trace) {
    res.Set("setup_s", Quantile(setup_s, 0.5), setup_s.size());
    res.Set("ingest_pts_per_s", static_cast<double>(points) / busy_s);
    res.Set("tick_p50_ms", Quantile(round_ms, 0.5), round_ms.size());
    res.Set("ack_p50_ms", Quantile(ack_ms, 0.5), ack_ms.size());
    res.Set("query_p50_ms", Quantile(query_ms, 0.5), query_ms.size());
    res.Set("frames_per_s", static_cast<double>(frames) / busy_s);
    res.Set("rss_mb", PeakRssMb() - rss_base_mb);
    res.Set("diam_rel_width", Mean(rel_width), rel_width.size());
    return;
  }

  auto ledger = tracer.Summarize();
  SetIngestCounters(stats0, sum_stats(), &res);
  res.Set("core.allocs_per_pt", static_cast<double>(allocs) / static_cast<double>(points));
  auto& ins = ledger["core.InsertBatch"];
  res.Set("core.insert_ns_per_pt",
          ins.total_us * 1e3 / static_cast<double>(traced_points), ins.count);
  res.Set("core.insert_batch_us_p99", Quantile(ins.durations_us, 0.99), ins.count);
  auto& nf = ledger["core.NextFrame"];
  res.Set("core.next_frame_us_p50", Quantile(nf.durations_us, 0.5), nf.count);
  res.Set("core.next_frame_us_p99", Quantile(nf.durations_us, 0.99), nf.count);
  uint64_t frames1 = 0, full1 = 0;
  for (const auto& snd : senders) {
    frames1 += snd->stats().frames;
    full1 += snd->stats().full_frames;
  }
  res.Set("core.full_frame_ratio",
          static_cast<double>(full1 - full0) / static_cast<double>(frames1 - frames0));
  auto& diam = ledger["queries.CertifiedDiameter"];
  res.Set("queries.diameter_us_p50", Quantile(diam.durations_us, 0.5), diam.count);
  res.Set("loadgen.tracing_overhead_ratio",
          Quantile(update_us_traced, 0.5) / Quantile(update_us, 0.5));
  const double share = tracer.ChildShare("update");
  res.Set("trace.child_share", share);
  res.Check(share >= 0.95 && share <= 1.0,
            "trace reconciliation: insert + frame + ack spans cover " +
                std::to_string(share) + " of the update (want 0.95..1)");
  tracer.Write("window_churn-seed" + std::to_string(args.seed));
}

}  // namespace perfbench
