// Low-overhead tracing: per-thread ring buffers + Chrome trace_event JSON.
//
// The paper's whole contribution is a *schedule* — which front runs when,
// under what Eq. 1 transient — yet scalar aftermaths (SolverStats, cache
// counters) cannot show where workers idled, when leases were denied, or
// when the accountant's high-water mark occurred. TraceRecorder captures
// that timeline: every instrumented layer emits begin/end/instant/counter
// events into a fixed-capacity ring buffer owned by the emitting thread,
// and the recorder exports the union as Chrome `trace_event` JSON that
// chrome://tracing and Perfetto load directly — executor worker lanes as
// tracks, fronts as spans, the memory accountant as a counter track.
//
// Each fact has one record. The instrumented layers: the solver phases
// (analyze/plan/factorize/solve spans), the symbolic cache (hit/miss/
// evict instants), the executor (a task span per worker lane, admission/
// defer/stall instants, the memory counter track),
// FrontalEngine::process_front (the one span per front, on the emitting
// thread's track) and the worker pool (stint spans, lease grant/deny
// instants — the pool is also the one lease counter). The dense kernel
// records nothing: its panels run inside their front's span.
//
// Cost model. Recording is **off by default**; the disabled emit path is
// one relaxed atomic load and an early return, so instrumentation can sit
// on hot paths (per-front, per-lease) permanently. When enabled, an emit
// is two uncontended atomics plus a struct store into the calling
// thread's own buffer — no locks, no allocation, no cross-thread traffic.
// Buffers are fixed-capacity and **drop oldest** on overflow (the tail of
// a run is what you want to see); every dropped or aborted event is
// counted, so a truncated trace is always labelled as such.
//
// Concurrency. One writer per buffer (the owning thread); drains exclude
// writers with a Dekker-style handshake: the drain disables recording
// (seq_cst) and waits for each buffer's `active` flag, while a writer
// re-checks the enabled flag (seq_cst) *after* raising `active` — so
// either the writer sees the disable and aborts (counted), or the drain
// sees `active` and waits. No fences (TSan models plain seq_cst atomics
// exactly); the buffer slots themselves are plain stores ordered by the
// release/acquire pair on `active`.
//
// Names and categories must be string literals (or otherwise outlive the
// recorder): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace treemem::obs {

/// One recorded event. `lane >= 0` pins the event to an executor worker
/// lane (exported as pid 1 "scheduler", tid = lane); `lane < 0` leaves it
/// on the emitting thread's own track (pid 2 "threads"). Counter events
/// ('C') always render on the scheduler process so the accountant track
/// sits next to the worker lanes.
struct TraceEvent {
  const char* name = nullptr;  ///< static string literal
  const char* cat = nullptr;   ///< static string literal
  const char* key0 = nullptr;  ///< first numeric arg name (nullptr = none)
  const char* key1 = nullptr;  ///< second numeric arg name
  long long val0 = 0;
  long long val1 = 0;
  double ts_us = 0.0;  ///< microseconds since the recorder's epoch
  int lane = -1;       ///< executor lane, or -1 for the thread's own track
  int tid = 0;         ///< emitting thread's registration index
  char phase = 'i';    ///< 'B' begin, 'E' end, 'i' instant, 'C' counter
};

struct TraceRecorderOptions {
  /// Events retained per emitting thread; older events are overwritten
  /// (and counted dropped) once a thread exceeds this.
  std::size_t buffer_capacity = 1u << 15;
};

class TraceRecorder {
 public:
  static constexpr int kNoLane = -1;

  explicit TraceRecorder(TraceRecorderOptions options = {});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder every instrumentation site emits into.
  /// Constructed on first use, disabled until start().
  static TraceRecorder& instance();

  /// True while events are being recorded (relaxed — the emit fast path).
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void start() { enabled_.store(true, std::memory_order_seq_cst); }
  void stop() { enabled_.store(false, std::memory_order_seq_cst); }

  void begin(const char* name, const char* cat, int lane = kNoLane,
             const char* key0 = nullptr, long long val0 = 0,
             const char* key1 = nullptr, long long val1 = 0) {
    emit('B', name, cat, lane, key0, val0, key1, val1);
  }
  void end(const char* name, const char* cat, int lane = kNoLane) {
    emit('E', name, cat, lane, nullptr, 0, nullptr, 0);
  }
  void instant(const char* name, const char* cat, int lane = kNoLane,
               const char* key0 = nullptr, long long val0 = 0,
               const char* key1 = nullptr, long long val1 = 0) {
    emit('i', name, cat, lane, key0, val0, key1, val1);
  }
  /// A counter-track sample: `name` is the track, `key` the series.
  void counter(const char* name, const char* key, long long value) {
    emit('C', name, "counter", kNoLane, key, value, nullptr, 0);
  }

  struct Stats {
    std::uint64_t retained = 0;  ///< events currently held in buffers
    std::uint64_t dropped = 0;   ///< overwritten (overflow) + aborted (drain)
    std::size_t threads = 0;     ///< threads that have emitted at least once
  };
  /// Exact counts: momentarily pauses recording to exclude writers.
  Stats stats();

  /// Every retained event, oldest-first per thread (pauses recording).
  std::vector<TraceEvent> snapshot();

  /// Drops all retained events and resets the drop counters; thread
  /// registrations (and lane/tid assignments) survive.
  void clear();

  /// Writes the Chrome trace_event JSON for everything retained. Pauses
  /// recording for the drain and restores it afterwards, so a long-lived
  /// service can flush on demand. The file form overwrites `path`.
  void write_chrome_json(std::ostream& os);
  void write_chrome_json(const std::string& path);

 private:
  struct ThreadBuffer;

  void emit(char phase, const char* name, const char* cat, int lane,
            const char* key0, long long val0, const char* key1,
            long long val1);
  ThreadBuffer& local_buffer();
  /// Disables recording and waits until no writer is mid-emit. Returns
  /// whether recording was enabled (pass to resume()).
  bool pause();
  void resume(bool was_enabled) {
    if (was_enabled) enabled_.store(true, std::memory_order_seq_cst);
  }
  /// Requires paused; appends every retained event, oldest-first.
  void collect_locked(std::vector<TraceEvent>& out) const;

  const TraceRecorderOptions options_;
  const std::uint64_t id_;  ///< process-unique — keys the thread-local cache
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII begin/end pair on `TraceRecorder::instance()` (or an explicit
/// recorder). The end event is emitted iff the begin was — a recorder
/// started mid-span cannot see an orphan 'E'.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat,
            int lane = TraceRecorder::kNoLane, const char* key0 = nullptr,
            long long val0 = 0, const char* key1 = nullptr,
            long long val1 = 0)
      : TraceSpan(TraceRecorder::instance(), name, cat, lane, key0, val0,
                  key1, val1) {}
  TraceSpan(TraceRecorder& recorder, const char* name, const char* cat,
            int lane = TraceRecorder::kNoLane, const char* key0 = nullptr,
            long long val0 = 0, const char* key1 = nullptr,
            long long val1 = 0)
      : recorder_(recorder), name_(name), cat_(cat), lane_(lane),
        armed_(recorder.enabled()) {
    if (armed_) recorder_.begin(name_, cat_, lane_, key0, val0, key1, val1);
  }
  ~TraceSpan() {
    if (armed_) recorder_.end(name_, cat_, lane_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder& recorder_;
  const char* name_;
  const char* cat_;
  int lane_;
  bool armed_;
};

/// The `TREEMEM_TRACE` output path (strictly parsed: unset/empty = none).
std::optional<std::string> trace_path_from_env();

/// Scoped recording session for CLI/bench entry points: an empty path is
/// a no-op; otherwise start()s the process recorder on construction and
/// stop()s + writes the Chrome JSON to the path on destruction (the
/// flush-on-shutdown contract). `TREEMEM_TRACE` wins over an empty
/// constructor argument, so `TREEMEM_TRACE=run.json treemem_cli solve …`
/// traces without any flag.
class TraceSession {
 public:
  explicit TraceSession(std::string path);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace treemem::obs
