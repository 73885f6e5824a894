#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>

// ---------------------------------------------------------------------------
// Counting operator new: core.allocs_per_pt reads it around InsertBatch.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }

// The replacement operator new allocates with malloc, so free() is the
// matching deallocator; the compiler cannot see that pairing.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace perfbench {

uint64_t AllocCount() { return g_allocations.load(std::memory_order_relaxed); }

void AddStats(const streamhull::AdaptiveHullStats& s,
              streamhull::AdaptiveHullStats* sum) {
  sum->points_processed += s.points_processed;
  sum->batch_prefilter_rejections += s.batch_prefilter_rejections;
  sum->batch_simd_rejections += s.batch_simd_rejections;
  sum->batch_cache_refreshes += s.batch_cache_refreshes;
  sum->directions_refined += s.directions_refined;
  sum->directions_unrefined += s.directions_unrefined;
}

void SetIngestCounters(const streamhull::AdaptiveHullStats& before,
                       const streamhull::AdaptiveHullStats& after,
                       Result* result) {
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const double kpts = delta(after.points_processed, before.points_processed) / 1e3;
  const double rejects = delta(after.batch_prefilter_rejections, before.batch_prefilter_rejections);
  result->Set("geom.prefilter_reject_ratio", rejects / (kpts * 1e3));
  result->Set("geom.simd_reject_share",
              rejects > 0 ? delta(after.batch_simd_rejections, before.batch_simd_rejections) / rejects : 0);
  result->Set("geom.cache_refreshes_per_kpt",
              delta(after.batch_cache_refreshes, before.batch_cache_refreshes) / kpts);
  result->Set("core.refine_steps_per_kpt",
              (delta(after.directions_refined, before.directions_refined) +
               delta(after.directions_unrefined, before.directions_unrefined)) / kpts);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double ChildrenPeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_CHILDREN, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

bool WriteTraceFile(const std::string& file, const std::string& text) {
  const std::filesystem::path dir = ".bench_build/perfbench-trace";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir / file, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

std::string Bracket(double lo, double truth, double hi) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "[%.17g, %.17g] vs %.17g", lo, hi, truth);
  return buf;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"ingest_pts_per_s", "pts/s"},
      {"tick_p50_ms", "ms"},
      {"ack_p50_ms", "ms"},
      {"query_p50_ms", "ms"},
      {"frames_per_s", "frames/s"},
      {"rss_mb", "MiB"},
      {"diam_rel_width", "ratio"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"geom.prefilter_reject_ratio", "ratio"},
      {"geom.simd_reject_share", "ratio"},
      {"geom.cache_refreshes_per_kpt", "1/kpt"},
      {"core.insert_ns_per_pt", "ns"},
      {"core.insert_batch_us_p99", "us"},
      {"core.allocs_per_pt", "count"},
      {"core.refine_steps_per_kpt", "1/kpt"},
      {"core.next_frame_us_p50", "us"},
      {"core.next_frame_us_p99", "us"},
      {"core.full_frame_ratio", "ratio"},
      {"queries.diameter_us_p50", "us"},
      {"queries.extent_us_p50", "us"},
      {"queries.separation_us_p50", "us"},
      {"queries.separation_us_p99", "us"},
      {"queries.unknown_ratio", "ratio"},
      {"multi.poll_ms_p50", "ms"},
      {"multi.poll_ms_p99", "ms"},
      {"multi.candidate_ratio", "ratio"},
      {"multi.pairs_evaluated_per_tick", "count"},
      {"multi.streams_refreshed_per_tick", "count"},
      {"multi.view_materializations_per_tick", "count"},
      {"multi.events_per_tick", "count"},
      {"multi.apply_us_p50", "us"},
      {"multi.apply_us_p99", "us"},
      {"multi.view_us_p50", "us"},
      {"server.frame_decode_us_p50", "us"},
      {"server.pump_avg_us", "us"},
      {"server.polls_per_s", "1/s"},
      {"server.wire_bytes_per_frame", "bytes"},
      {"server.nak_count", "count"},
      {"server.rejected_count", "count"},
      {"runtime.ack_residual_ms_p50", "ms"},
      {"runtime.ack_residual_ms_p99", "ms"},
      {"loadgen.update_p99_us", "us"},
      {"loadgen.tick_p99_ms", "ms"},
      {"loadgen.ack_p99_ms", "ms"},
      {"loadgen.query_p99_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.tracing_overhead_ratio", "ratio"},
      {"trace.child_share", "ratio"},
  };
  return kSpecs;
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

int Result::Print(const Args& args) const {
  Result out = *this;
  const auto& specs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& others = args.trace ? EndToEndMetrics() : PerLayerMetrics();
  std::string json_metrics;
  for (const MetricSpec& spec : specs) {
    auto it = metrics.find(spec.name);
    Value v;
    if (it != metrics.end()) {
      v = it->second;
    } else if (!args.trace) {
      out.Fail(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(v.value)) {
      if (!args.trace) out.Fail(std::string("metric not finite: ") + spec.name);
      v.value = 0;
    }
    char line[256];
    std::snprintf(line, sizeof line, "metric %-38s %.6g %s", spec.name,
                  v.value, spec.unit);
    std::string text = line;
    if (v.samples > 0) text += " (n=" + std::to_string(v.samples) + ")";
    std::printf("%s\n", text.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v.value);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                    value + ", \"unit\": \"" + spec.unit + "\"}";
  }
  // Metrics of the other mode that this run measured anyway: shown, but
  // not part of the JSON line.
  for (const MetricSpec& spec : others) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end()) continue;
    std::printf("also   %-38s %.6g %s (n=%llu)\n", spec.name, it->second.value, spec.unit,
                static_cast<unsigned long long>(it->second.samples));
  }
  const double failed_ratio =
      out.attempted == 0 ? 0.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("failed_ratio %.6g (%llu failed of %llu attempted)\n",
              failed_ratio, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  for (const std::string& f : out.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  if (!valid) std::printf("INVALID: the load generator fell behind\n");
  const bool correct = out.failed == 0 && valid;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted < 1 ? 1 : out.attempted),
      static_cast<unsigned long long>(out.failed), json_metrics.c_str());
  std::fflush(stdout);
  // 3: every check passed but the run measured the generator; run.py runs
  // it again.
  return correct ? 0 : out.failed == 0 ? 3 : 1;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, NowNs(), 0});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  stack_.pop_back();
}

std::map<std::string, Tracer::Ledger> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Ledger> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Ledger& l = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++l.count;
    l.total_us += dur;
    l.self_us += dur - static_cast<double>(child_ns[i]) / 1e3;
    l.durations_us.push_back(dur);
  }
  return out;
}

double Tracer::ChildShare(const std::string& parent) const {
  int64_t parent_ns = 0, children_ns = 0;
  for (const Span& s : spans_) {
    if (parent == s.name) parent_ns += s.end_ns - s.start_ns;
    if (s.parent >= 0 && parent == spans_[static_cast<size_t>(s.parent)].name) {
      children_ns += s.end_ns - s.start_ns;
    }
  }
  return parent_ns == 0 ? 0.0
                        : static_cast<double>(children_ns) /
                              static_cast<double>(parent_ns);
}

bool Tracer::Write(const std::string& stem) const {
  std::string spans = "name,parent,start_us,end_us\n";
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[192];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line, "%s,%s,%.3f,%.3f\n", s.name,
                  s.parent < 0 ? "" : spans_[static_cast<size_t>(s.parent)].name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - t0) / 1e3);
    spans += line;
  }
  std::string ledger = "name,count,total_us,self_us,p50_us,p99_us\n";
  for (auto& [name, l] : Summarize()) {
    std::snprintf(line, sizeof line, "%s,%llu,%.3f,%.3f,%.3f,%.3f\n", name.c_str(),
                  static_cast<unsigned long long>(l.count), l.total_us, l.self_us,
                  Quantile(l.durations_us, 0.5), Quantile(l.durations_us, 0.99));
    ledger += line;
  }
  return WriteTraceFile(stem + ".spans.csv", spans) &&
         WriteTraceFile(stem + ".ledger.csv", ledger);
}

// ---------------------------------------------------------------------------
// Brute-force geometry
// ---------------------------------------------------------------------------

using streamhull::Cross;
using streamhull::Distance;
using streamhull::DistanceToSegment;
using streamhull::Dot;
using streamhull::Orient;

std::vector<Point2> ReferenceHull(std::vector<Point2> pts) {
  auto less = [](Point2 a, Point2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  };
  std::sort(pts.begin(), pts.end(), less);
  pts.erase(std::unique(pts.begin(), pts.end(),
                        [](Point2 a, Point2 b) { return a.x == b.x && a.y == b.y; }),
            pts.end());
  if (pts.size() < 3) return pts;
  std::vector<Point2> hull(2 * pts.size());
  size_t k = 0;
  // Pop only strict right turns: collinear boundary points stay.
  for (size_t i = 0; i < pts.size(); ++i) {
    while (k >= 2 && Orient(hull[k - 2], hull[k - 1], pts[i]) < 0) --k;
    hull[k++] = pts[i];
  }
  for (size_t i = pts.size() - 1, lower = k + 1; i-- > 0;) {
    while (k >= lower && Orient(hull[k - 2], hull[k - 1], pts[i]) < 0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);
  return hull;
}

std::vector<Point2> ExtendHull(const std::vector<Point2>& hull,
                               const std::vector<Point2>& more) {
  std::vector<Point2> pts = hull;
  pts.insert(pts.end(), more.begin(), more.end());
  return ReferenceHull(std::move(pts));
}

double BruteDiameter(const std::vector<Point2>& pts) {
  double best = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      best = std::max(best, Distance(pts[i], pts[j]));
    }
  }
  return best;
}

double BruteExtent(const std::vector<Point2>& pts, Point2 u) {
  if (pts.empty()) return 0;
  double lo = Dot(pts[0], u), hi = lo;
  for (const Point2& p : pts) {
    lo = std::min(lo, Dot(p, u));
    hi = std::max(hi, Dot(p, u));
  }
  return hi - lo;
}

namespace {
// True when some edge line of \p a has all of \p b strictly outside.
bool EdgeSeparates(const std::vector<Point2>& a, const std::vector<Point2>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const Point2 p = a[i], q = a[(i + 1) % a.size()];
    bool all_outside = true;
    for (const Point2& v : b) {
      if (Orient(p, q, v) >= 0) {
        all_outside = false;
        break;
      }
    }
    if (all_outside) return true;
  }
  return false;
}
}  // namespace

bool HullsIntersect(const std::vector<Point2>& a, const std::vector<Point2>& b) {
  if (a.empty() || b.empty()) return false;
  return !EdgeSeparates(a, b) && !EdgeSeparates(b, a);
}

bool HullInside(const std::vector<Point2>& inner,
                const std::vector<Point2>& outer) {
  if (outer.size() < 3) return false;
  for (const Point2& v : inner) {
    for (size_t i = 0; i < outer.size(); ++i) {
      if (Orient(outer[i], outer[(i + 1) % outer.size()], v) < 0) return false;
    }
  }
  return true;
}

double Depth(Point2 p, const std::vector<Point2>& poly) {
  bool inside = true;
  double nearest = INFINITY;
  for (size_t i = 0; i < poly.size(); ++i) {
    const Point2 a = poly[i], b = poly[(i + 1) % poly.size()];
    if (Orient(a, b, p) < 0) inside = false;
    nearest = std::min(nearest, DistanceToSegment(p, a, b));
  }
  return inside ? nearest : -nearest;
}

double BruteSeparation(const std::vector<Point2>& a,
                       const std::vector<Point2>& b) {
  if (HullsIntersect(a, b)) return 0;
  double best = INFINITY;
  auto scan = [&](const std::vector<Point2>& p, const std::vector<Point2>& q) {
    for (const Point2& v : p) {
      for (size_t i = 0; i < q.size(); ++i) {
        best = std::min(best, DistanceToSegment(v, q[i], q[(i + 1) % q.size()]));
      }
    }
  };
  scan(a, b);
  scan(b, a);
  return best;
}

}  // namespace perfbench
