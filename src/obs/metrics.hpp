// MetricsRegistry — one process-wide namespace of counters, gauges and
// fixed-bucket histograms, with Prometheus-style text exposition.
//
// The repo accumulated one ad-hoc stats struct per subsystem
// (SolverStats, WorkerPool counters, two cache Stats); each is still the
// source of truth for its subsystem, but a service needs them in one
// scrapeable place. The registry holds named metrics for code that wants
// a shared counter, and **exporters** — callbacks that render an existing
// stats struct into exposition lines at dump time — for subsystems that
// already keep their own atomics (register into, rather than replace).
//
// Hot-path cost: Counter::add and Histogram::observe are one relaxed
// fetch_add (observe adds a branchless upper_bound over ≤ a few dozen
// bucket bounds); Gauge::set is one relaxed store. Registration
// (find-or-create by name+labels) takes a mutex and is meant for startup,
// not per-event — cache the returned reference, which stays valid for the
// registry's lifetime.
//
// Exposition: `dump()` renders owned metrics sorted by name, then every
// exporter in registration order, in the Prometheus text format
// (`name{labels} value`, histograms as cumulative `_bucket{le="…"}` lines
// plus `_sum`/`_count`). Metric naming scheme used across the repo:
// `treemem_<subsystem>_<what>[_<unit>][_total]` — e.g.
// `treemem_solve_latency_seconds`, `treemem_symbolic_cache_hits_total`,
// `treemem_pool_leases_denied_total`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace treemem::obs {

class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(long long value) {
    value_.store(value, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

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

  /// Find-or-create; the reference stays valid for the registry's
  /// lifetime. `labels` is the exposition label set without braces, e.g.
  /// `cache="symbolic"` (empty = no labels). Re-registering an existing
  /// name+labels returns the same object; a histogram re-registered with
  /// different bounds keeps the original bounds.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& labels = "");

  /// Exporters render subsystem-owned stats at dump time; they return
  /// ready-made exposition lines (use the format_* helpers). Remove
  /// before the subsystem dies — the token identifies the registration.
  using Exporter = std::function<std::string()>;
  std::uint64_t add_exporter(Exporter exporter);
  void remove_exporter(std::uint64_t token);

  /// The full text exposition: owned metrics sorted by name, then
  /// exporters in registration order.
  std::string dump() const;

  /// Zeroes every owned metric's value (identities and exporters
  /// survive; references stay valid). Test isolation, not production.
  void reset_values();

 private:
  struct OwnedMetric {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, OwnedMetric> metrics_;
  std::vector<std::pair<std::uint64_t, Exporter>> exporters_;
  std::uint64_t next_token_ = 1;
};

/// The process registry's text exposition (the `--metrics-out` payload).
std::string dump_metrics();

// Exposition formatting helpers (shared by the registry and exporters).
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
