// Shared pieces of the end-to-end benchmark program: wall-clock reads, the
// in-memory span recorder, latency statistics and the run record that
// perfbench/run.py turns into the benchmark's result line.
//
// Wall-clock reads live here, outside src/ and bench/: the simulator itself
// only ever sees virtual time, and the benchmark times its calls into the
// simulator from outside.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock, from an arbitrary process-local origin.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Busy-wait until `deadline_ns`. A thread that sleeps between arrivals
/// wakes tens of microseconds to milliseconds late (its idle virtual CPU
/// has to be scheduled again), which would dominate the open-loop service
/// times being measured.
void wait_until(std::int64_t deadline_ns);

/// Pin the calling thread to the `index`-th CPU this process may run on,
/// so the simulation thread and the readers never queue behind each other
/// for one CPU. Returns false (and leaves the thread as it was) when the
/// process has fewer CPUs.
bool pin_to_cpu(unsigned index);

/// How many CPUs this process may run on (0 when unknown).
[[nodiscard]] unsigned cpu_count();

/// Pin the calling thread to the next CPU in turn for its `round`-th unit
/// of work. On a shared host each virtual CPU runs at its own speed, which
/// drifts (one ran a fixed loop in 88-92 ms while the others took 90-135
/// ms), so a thread that stays on one CPU makes its run as fast as that
/// CPU; rotating makes every run sample all of them, and a median over the
/// rounds leaves out the slowest.
inline void rotate_cpu(std::size_t round) {
  if (const unsigned n = cpu_count(); n > 0) pin_to_cpu(static_cast<unsigned>(round % n));
}

// ---- spans ----------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the same thread's span
/// list (-1 for a root); `query` ties the spans of one query together.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t query = 0;
};

/// Process-wide span store. Each thread appends to its own buffer (no
/// locking on the hot path); buffers are registered once per thread and
/// merged when the run writes its spans out.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_ = on; }

  /// Open a span on the calling thread; returns its index, or -1 when
  /// tracing is off.
  std::int32_t open(const char* name, std::uint64_t query);
  void close(std::int32_t index);

  /// Every thread's spans, tagged with the thread's registration order.
  struct ThreadSpans {
    int thread = 0;
    std::vector<Span> spans;
  };
  [[nodiscard]] std::vector<ThreadSpans> collect() const;

  /// Per span name, over the spans that start in [from_ns, to_ns): number
  /// of spans, total time, self time (total minus the time child spans
  /// cover) and the time of those that are roots (no parent span).
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double root_ms = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals(std::int64_t from_ns, std::int64_t to_ns) const;

  /// Durations (microseconds) of the spans named `name` that start in
  /// [from_ns, to_ns).
  [[nodiscard]] std::vector<double> durations_us(const std::string& name, std::int64_t from_ns,
                                                 std::int64_t to_ns) const;

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  struct Buffer;
  Buffer& local();

  bool enabled_ = false;
  mutable std::mutex mu_;  // guards buffers_ registration and collection
  std::vector<Buffer*> buffers_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t query = 0)
      : index_(Tracer::instance().open(name, query)) {}
  ~ScopedSpan() { Tracer::instance().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

// ---- the run record ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. main() writes it as JSON; run.py
/// prints the report and the result line from it.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failure reason -> count; the counts sum to `failed`.
  std::map<std::string, std::uint64_t> failure_reasons;

  /// Output checks: every entry names a check and whether it held.
  std::vector<std::pair<std::string, bool>> checks;

  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Counts the seed fixes; run.py compares them across runs of one seed.
  std::map<std::string, double> pins;
  /// Counts that depend on timing: reported, never compared.
  std::map<std::string, double> counts;
  /// Run metadata: rates, thread counts, tail percentile and sample count.
  std::map<std::string, std::string> meta;

  void check(const std::string& what, bool ok) { checks.emplace_back(what, ok); }
  void fail(const std::string& reason) {
    ++failed;
    ++failure_reasons[reason];
  }
  [[nodiscard]] bool correct() const {
    for (const auto& [what, ok] : checks) {
      if (!ok) return false;
    }
    return true;
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  bool write(const std::string& path) const;
};

/// Failure reasons, shared by every workload.
inline constexpr const char* kNoHistory = "no_history_on_bottleneck";
inline constexpr const char* kShortHistory = "history_too_short";
inline constexpr const char* kAdmissionReject = "admission_reject";
inline constexpr const char* kIncomplete = "incomplete_answer";
inline constexpr const char* kUnroutable = "unroutable_flow";

}  // namespace perfbench
