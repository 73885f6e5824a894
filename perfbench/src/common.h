// perfbench: the pieces every workload shares — arguments, the result and
// its metric tables, percentiles, the span tracer, the allocation counter
// and the brute-force geometry the checks compare answers against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "geom/point.h"

namespace perfbench {

using streamhull::Point2;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line arguments shared by all workloads.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string daemon;  ///< Path of the streamhulld binary (server_mixed).
  std::string commit = "unknown";
  /// Checker self-test: "diameter_ulp", "extent_ulp", "ack_generation" or
  /// "nak" feeds one known-bad answer to the matching check; "lost_events" discards
  /// every fleet_tick Poll event after set-up.
  std::string inject;
};

/// \brief Linear-interpolated quantile (q in [0, 1]) of \p v; 0 when empty.
/// Sorts \p v in place.
double Quantile(std::vector<double>& v, double q);

/// "[lo, hi] vs truth" with every digit, for check failure messages.
std::string Bracket(double lo, double truth, double hi);

/// Mean of \p v; 0 when empty.
double Mean(const std::vector<double>& v);

/// p99 is only stated from this many samples up; workloads loop until
/// every p99 they report has at least this many.
inline constexpr size_t kMinP99Samples = 1000;

/// \brief One workload run's outcome: operation counts, check failures and
/// metric values. Metrics are recorded by name; Print() emits exactly the
/// BENCHMARK.json list for the mode (end-to-end or per-layer), so a missing
/// end-to-end value is a failed run and a per-layer metric whose layer the
/// workload bypasses reads 0.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;  ///< False when the run measured the generator, not the system.
  std::vector<std::string> failures;  ///< First few failure messages.

  struct Value {
    double value = 0;
    uint64_t samples = 0;  ///< Sample count behind a timing (0: not a timing).
  };
  std::map<std::string, Value> metrics;
  std::vector<std::string> notes;  ///< Extra human-readable report lines.

  void Set(const std::string& name, double value, uint64_t samples = 0) {
    metrics[name] = Value{value, samples};
  }
  /// Records one check; a false \p ok counts as a failed operation.
  void Check(bool ok, const std::string& what);
  /// Records an operation the system refused or failed.
  void Fail(const std::string& what) { Check(false, what); }

  /// Prints the report lines and the final JSON line; returns the exit
  /// code: 0 when correct, 3 when only invalid, 1 when a check failed.
  int Print(const Args& args) const;
};

/// A metric's name and unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own calls into each layer.
// ---------------------------------------------------------------------------

/// \brief In-memory span recorder. Spans nest by a stack (the benchmark is
/// single-threaded); names are string literals compared by content. Begin
/// returns -1 and records nothing while disabled, so a workload can trace
/// every other operation and compare the two halves.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), enabled_(on) {}

  bool on() const { return on_; }
  /// Enables or disables recording for the next operations (no-op when
  /// tracing is off for the run).
  void set_enabled(bool enabled) { enabled_ = on_ && enabled; }

  int Begin(const char* name);
  void End(int id);

  /// Per-name aggregate of the recorded spans.
  struct Ledger {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;  ///< Duration minus the time covered by child spans.
    std::vector<double> durations_us;
  };
  std::map<std::string, Ledger> Summarize() const;

  /// \brief Children's share of their parents' time, over every span named
  /// \p parent: sum of direct children durations / sum of parent durations.
  double ChildShare(const std::string& parent) const;

  /// \brief Writes <stem>.spans.csv (every span: name, parent, start and
  /// end in us) and <stem>.ledger.csv (per name: count, total, self time,
  /// p50, p99 in us) under .bench_build/perfbench-trace.
  bool Write(const std::string& stem) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool on_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Adds every ingest counter of \p s into \p sum.
void AddStats(const streamhull::AdaptiveHullStats& s,
              streamhull::AdaptiveHullStats* sum);

/// \brief Sets the geom.* rows and core.refine_steps_per_kpt from the
/// engines' counters at the start (\p before) and end (\p after) of the
/// measured phase.
void SetIngestCounters(const streamhull::AdaptiveHullStats& before,
                       const streamhull::AdaptiveHullStats& after,
                       Result* result);

/// Allocations made through the global operator new since process start
/// (the benchmark binary replaces it with a counting one).
uint64_t AllocCount();

/// Peak resident set of this process, in MiB.
double PeakRssMb();
/// Peak resident set of the largest waited-for child process, in MiB.
double ChildrenPeakRssMb();

/// Writes \p text to .bench_build/perfbench-trace/<file>; false on error.
bool WriteTraceFile(const std::string& file, const std::string& text);

// ---------------------------------------------------------------------------
// Brute-force geometry for the checks. Independent of the library's hull
// and query code; only the point primitives of geom/point.h are shared, so
// a distance is rounded exactly as the library rounds it.
// ---------------------------------------------------------------------------

/// \brief Convex hull (counter-clockwise, monotone chain) of \p pts. Keeps
/// collinear boundary points, so it is a superset of the true vertices.
std::vector<Point2> ReferenceHull(std::vector<Point2> pts);
/// The hull of \p hull's vertices plus \p more.
std::vector<Point2> ExtendHull(const std::vector<Point2>& hull,
                               const std::vector<Point2>& more);
/// Largest pairwise distance, over all pairs.
double BruteDiameter(const std::vector<Point2>& pts);
/// max - min of Dot(p, u) over \p pts.
double BruteExtent(const std::vector<Point2>& pts, Point2 u);
/// True when the convex polygons (CCW) share at least one point.
bool HullsIntersect(const std::vector<Point2>& a, const std::vector<Point2>& b);
/// True when every vertex of \p inner lies in the closed polygon \p outer.
bool HullInside(const std::vector<Point2>& inner,
                const std::vector<Point2>& outer);
/// \brief Signed distance from \p p to the boundary of the convex polygon
/// \p poly (CCW, at least 3 vertices): positive inside, negative outside.
double Depth(Point2 p, const std::vector<Point2>& poly);
/// Minimum distance between two convex polygons (0 when they intersect).
double BruteSeparation(const std::vector<Point2>& a,
                       const std::vector<Point2>& b);

// ---------------------------------------------------------------------------
// Workloads (one file each). Each fills \p result with every end-to-end
// metric, or with the per-layer metrics when args.trace is set.
// ---------------------------------------------------------------------------

void RunFleetTick(const Args& args, Result* result);
void RunWindowChurn(const Args& args, Result* result);
void RunServerMixed(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
