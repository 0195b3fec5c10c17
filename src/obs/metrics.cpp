#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace treemem::obs {

namespace {

void append_value(std::ostringstream& os, double value) {
  if (value == static_cast<long long>(value) && std::abs(value) < 1e15) {
    os << static_cast<long long>(value);
  } else {
    os << value;
  }
}

std::string render_name(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

std::string format_scalar(const std::string& name, const std::string& labels,
                          const char* type, double value) {
  std::ostringstream os;
  os << "# TYPE " << name << ' ' << type << '\n'
     << render_name(name, labels) << ' ';
  append_value(os, value);
  os << '\n';
  return os.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<long long>[bounds_.size() + 1]) {
  TM_CHECK(!bounds_.empty(),
           "Histogram needs at least one bucket bound");
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    TM_CHECK(bounds_[i] < bounds_[i + 1],
           "Histogram bounds must be strictly ascending");
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  // bucket i holds observations in (bounds[i-1], bounds[i]]; the implicit
  // last bucket takes everything above the largest finite bound.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

long long Histogram::count() const {
  long long total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::quantile(double q) const {
  TM_CHECK(q >= 0.0 && q <= 1.0,
           "quantile q out of [0, 1]: " << q);
  const std::vector<long long> counts = bucket_counts();
  long long total = 0;
  for (const long long c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  long long cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const long long before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i == bounds_.size()) return bounds_.back();  // overflow bucket
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const double within =
        (target - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi) {
  TM_CHECK(lo > 0.0 && hi > lo,
           "exponential_bounds needs 0 < lo < hi");
  static constexpr double kSeries[] = {1.0, 2.0, 5.0};
  std::vector<double> bounds;
  double decade = std::pow(10.0, std::floor(std::log10(lo)));
  for (; decade <= hi; decade *= 10.0) {
    for (const double s : kSeries) {
      const double bound = decade * s;
      if (bound < lo * (1.0 - 1e-12) || bound > hi * (1.0 + 1e-12)) continue;
      bounds.push_back(bound);
    }
  }
  TM_CHECK(!bounds.empty(),
           "exponential_bounds produced no buckets");
  return bounds;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

std::uint64_t MetricsRegistry::add_exporter(Exporter exporter) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t token = next_token_++;
  exporters_.emplace_back(token, std::move(exporter));
  return token;
}

void MetricsRegistry::remove_exporter(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(exporters_,
                [token](const auto& entry) { return entry.first == token; });
}

std::string MetricsRegistry::dump() const {
  // Copy the exporter list out so a long-running exporter cannot hold the
  // registry lock (exporters may touch subsystem locks of their own).
  std::vector<Exporter> exporters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exporters.reserve(exporters_.size());
    for (const auto& [token, exporter] : exporters_) {
      exporters.push_back(exporter);
    }
  }
  std::string text;
  for (const Exporter& exporter : exporters) text += exporter();
  return text;
}

std::string dump_metrics() { return MetricsRegistry::instance().dump(); }

std::string format_counter(const std::string& name,
                           const std::string& labels, long long value) {
  std::ostringstream os;
  os << "# TYPE " << name << " counter\n"
     << render_name(name, labels) << ' ' << value << '\n';
  return os.str();
}

std::string format_counter(const std::string& name,
                           const std::string& labels, double value) {
  return format_scalar(name, labels, "counter", value);
}

std::string format_gauge(const std::string& name, const std::string& labels,
                         double value) {
  return format_scalar(name, labels, "gauge", value);
}

std::string format_histogram(const std::string& name,
                             const std::string& labels,
                             const Histogram& histogram) {
  std::ostringstream os;
  os << "# TYPE " << name << " histogram\n";
  const std::string prefix = labels.empty() ? "" : labels + ",";
  const std::vector<long long> counts = histogram.bucket_counts();
  const std::vector<double>& bounds = histogram.bounds();
  long long cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    os << name << "_bucket{" << prefix << "le=\"";
    append_value(os, bounds[i]);
    os << "\"} " << cumulative << '\n';
  }
  cumulative += counts[bounds.size()];
  os << name << "_bucket{" << prefix << "le=\"+Inf\"} " << cumulative << '\n';
  os << name << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << ' ';
  append_value(os, histogram.sum());
  os << '\n'
     << name << "_count" << (labels.empty() ? "" : "{" + labels + "}") << ' '
     << cumulative << '\n';
  return os.str();
}

}  // namespace treemem::obs
