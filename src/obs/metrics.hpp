// MetricsRegistry — one process-wide, Prometheus-style text exposition
// of the stats each subsystem already keeps, plus the fixed-bucket
// Histogram those subsystems record latencies in.
//
// Each subsystem's own stats stay the one source of truth (SolverStats,
// WorkerPool::stats(), the symbolic cache Stats); the registry owns no
// metric of its own. A subsystem registers an **exporter** — a callback
// that renders its stats into exposition lines at dump time — and removes
// it before it dies.
//
// Hot-path cost: Histogram::observe is a binary search over ≤ a few dozen
// bucket bounds and two relaxed atomic adds (bucket and sum). Exporters
// run only at dump time.
//
// Exposition: `dump()` renders every exporter in registration order, in
// the Prometheus text format (`name{labels} value`, histograms as
// cumulative `_bucket{le="…"}` lines plus `_sum`/`_count`). Metric naming
// scheme used across the repo: `treemem_<subsystem>_<what>[_<unit>]
// [_total]` — e.g. `treemem_solve_latency_seconds`,
// `treemem_symbolic_cache_hits_total`, `treemem_pool_leases_denied_total`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace treemem::obs {

/// Fixed-bucket histogram for non-negative observations (latencies,
/// sizes). Buckets are defined by ascending finite upper bounds plus an
/// implicit +Inf overflow bucket; observe() is a lock-free fetch_add.
/// Quantiles interpolate linearly inside the selected bucket (the first
/// bucket's lower edge is 0; a quantile landing in the overflow bucket
/// reports the largest finite bound), which is exact enough for p50/p99
/// dashboards and — unlike sorted-vector index math — has no off-by-one
/// cliff at small sample counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value);

  long long count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// The q-quantile (q in [0, 1]) of the observations so far; 0 when
  /// empty.
  double quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<long long> bucket_counts() const;
  void reset();

  /// A 1–2–5 series covering [lo, hi] (both positive, lo < hi) — the
  /// default latency ladder: exponential_bounds(1e-6, 10.0) spans 1 µs to
  /// 10 s in 22 buckets.
  static std::vector<double> exponential_bounds(double lo, double hi);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<long long>[]> counts_;  ///< bounds_+1 slots
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (what dump_metrics() renders).
  static MetricsRegistry& instance();

  /// Exporters render subsystem-owned stats at dump time; they return
  /// ready-made exposition lines (use the format_* helpers). Remove
  /// before the subsystem dies — the token identifies the registration.
  using Exporter = std::function<std::string()>;
  std::uint64_t add_exporter(Exporter exporter);
  void remove_exporter(std::uint64_t token);

  /// The full text exposition: exporters in registration order.
  std::string dump() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, Exporter>> exporters_;
  std::uint64_t next_token_ = 1;
};

/// The process registry's text exposition (the `--metrics-out` payload).
std::string dump_metrics();

// Exposition formatting helpers for exporters.
std::string format_counter(const std::string& name,
                           const std::string& labels, long long value);
/// A cumulative non-integral total (e.g. seconds spent).
std::string format_counter(const std::string& name,
                           const std::string& labels, double value);
std::string format_gauge(const std::string& name, const std::string& labels,
                         double value);
std::string format_histogram(const std::string& name,
                             const std::string& labels,
                             const Histogram& histogram);

}  // namespace treemem::obs
