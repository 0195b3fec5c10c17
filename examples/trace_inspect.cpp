// trace_inspect — offline digest of a treemem Chrome trace.
//
// Usage:
//   trace_inspect <trace.json> [--top N]
//
// Reads a trace produced by `treemem_cli solve --trace`, `serve --trace`,
// bench/numeric_parallel --trace or TREEMEM_TRACE=…, and prints the two
// summaries a timeline viewer makes you eyeball: per-worker tasks, fronts
// and busy/idle fractions (how much of the run each scheduler lane spent
// inside `front` spans — the executor's task payloads) and the top N
// longest tasks (the spans that bound the makespan; the paper's root-front
// bottleneck shows up here immediately). A task is one front or a whole
// subtree run on one lane: its span names the supernode it stands for (the
// subtree root) and the number of fronts it ran. A last line counts the
// worker pool's lease_grant/lease_deny instants — one per trailing-update
// panel that asked for helpers — and the mean number of workers a grant
// got, the width the parallel panels actually ran at.
//
// The parser is deliberately narrow: it reads the obs exporter's own
// format (one `{…}` event object per line inside `traceEvents`), not
// general JSON. Perfetto remains the tool for interactive digging; this
// is the 5-second terminal answer.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/env.hpp"
#include "support/text_table.hpp"

using namespace treemem;

namespace {

/// `"key":<number>` extractor over one event line.
std::optional<double> number_field(const std::string& line,
                                   const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::nullopt;
  }
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/// `"key":"value"` extractor (exporter strings carry no escapes).
std::optional<std::string> string_field(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(begin, end - begin);
}

struct TaskSpan {
  long long node = -1;
  long long fronts = 1;
  int lane = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
};

struct LaneUsage {
  double busy_us = 0.0;
  long long tasks = 0;
  long long fronts = 0;
};

/// The pool's lease instants: grants, denials and Σ workers granted.
struct LeaseTally {
  long long grants = 0;
  long long denials = 0;
  long long workers = 0;
};

std::string fmt(double v, int precision = 2) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

int run(const std::string& path, std::size_t top_n) {
  std::ifstream in(path);
  TM_CHECK(in.good(), "cannot open trace " << path);

  // One pass over the event lines: collect `front` begin/end pairs per
  // scheduler lane (pid 1; 'B'/'E' pair up as a stack per track) and the
  // run's overall time window from every timestamped event.
  std::map<int, std::vector<TaskSpan>> open;  // lane -> span stack
  std::vector<TaskSpan> tasks;
  std::map<int, LaneUsage> lanes;
  LeaseTally leases;
  double first_ts = 0.0, last_ts = 0.0;
  bool any_ts = false;

  std::string line;
  while (std::getline(in, line)) {
    const auto ph = string_field(line, "ph");
    if (!ph || ph->size() != 1 || *ph == "M") {
      continue;  // metadata, braces, or not an event line
    }
    const auto ts = number_field(line, "ts");
    if (!ts) {
      continue;
    }
    if (!any_ts || *ts < first_ts) first_ts = *ts;
    if (!any_ts || *ts > last_ts) last_ts = *ts;
    any_ts = true;

    const std::optional<std::string> name = string_field(line, "name");
    if (*ph == "i" && name == "lease_grant") {
      ++leases.grants;
      leases.workers +=
          static_cast<long long>(number_field(line, "granted").value_or(0.0));
      continue;
    }
    if (*ph == "i" && name == "lease_deny") {
      ++leases.denials;
      continue;
    }
    if (name != std::optional<std::string>("front") ||
        number_field(line, "pid") != std::optional<double>(1.0)) {
      continue;
    }
    const int lane = static_cast<int>(number_field(line, "tid").value_or(0));
    if (*ph == "B") {
      TaskSpan span;
      span.lane = lane;
      span.start_us = *ts;
      span.node = static_cast<long long>(
          number_field(line, "node").value_or(-1.0));
      span.fronts = static_cast<long long>(
          number_field(line, "fronts").value_or(1.0));
      open[lane].push_back(span);
    } else if (*ph == "E" && !open[lane].empty()) {
      TaskSpan span = open[lane].back();
      open[lane].pop_back();
      span.duration_us = *ts - span.start_us;
      tasks.push_back(span);
      lanes[lane].busy_us += span.duration_us;
      ++lanes[lane].tasks;
      lanes[lane].fronts += span.fronts;
    }
  }
  // A truncated trace (ring overflow) can open spans it never closes;
  // they are simply not counted — the retained tail is still exact.

  const std::string lease_line =
      "leases: " + std::to_string(leases.grants) + " granted, " +
      std::to_string(leases.denials) + " denied, mean granted width " +
      (leases.grants > 0 ? fmt(static_cast<double>(leases.workers) /
                               static_cast<double>(leases.grants))
                         : std::string("-")) +
      "\n";
  if (tasks.empty()) {
    std::cout << "no `front` spans in " << path
              << " — was the run traced with workers >= 1 and the parallel "
                 "engine?\n"
              << lease_line;
    return 0;
  }

  const double window_us = std::max(last_ts - first_ts, 1e-9);
  long long total_fronts = 0;
  for (const auto& [lane, usage] : lanes) {
    total_fronts += usage.fronts;
  }
  std::cout << "trace: " << path << " — " << tasks.size() << " tasks ("
            << total_fronts << " fronts) across " << lanes.size()
            << " worker lane(s), " << fmt(window_us / 1e3)
            << " ms window\n\n";

  TextTable lane_table(
      {"worker", "tasks", "fronts", "busy ms", "busy %", "idle %"});
  for (const auto& [lane, usage] : lanes) {
    const double busy_fraction = usage.busy_us / window_us;
    lane_table.add_row({"worker " + std::to_string(lane),
                        std::to_string(usage.tasks),
                        std::to_string(usage.fronts),
                        fmt(usage.busy_us / 1e3),
                        fmt(100.0 * busy_fraction, 1),
                        fmt(100.0 * (1.0 - busy_fraction), 1)});
  }
  std::cout << lane_table.to_string();

  std::sort(tasks.begin(), tasks.end(),
            [](const TaskSpan& a, const TaskSpan& b) {
              return a.duration_us > b.duration_us;
            });
  const std::size_t shown = std::min(top_n, tasks.size());
  std::cout << "\ntop " << shown << " longest tasks:\n";
  TextTable task_table(
      {"task", "node", "fronts", "worker", "duration ms", "start ms"});
  for (std::size_t i = 0; i < shown; ++i) {
    const TaskSpan& span = tasks[i];
    task_table.add_row({span.fronts > 1 ? "subtree" : "front",
                         std::to_string(span.node),
                         std::to_string(span.fronts),
                         std::to_string(span.lane),
                         fmt(span.duration_us / 1e3, 3),
                         fmt((span.start_us - first_ts) / 1e3, 3)});
  }
  std::cout << task_table.to_string();
  std::cout << "\n" << lease_line;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_n = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top_n = static_cast<std::size_t>(
          parse_int_strict(argv[++i], 1, 1 << 20, "--top"));
    } else if (path.empty() && !arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "usage: trace_inspect <trace.json> [--top N]\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: trace_inspect <trace.json> [--top N]\n";
    return 2;
  }
  try {
    return run(path, top_n);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
