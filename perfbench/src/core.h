// The benchmark's own logic, kept free of the program under test so it can
// be unit-tested on its own: the percentile rule, span recording with
// self-time attribution, the open-loop request schedule, and the result
// line the benchmark prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Median (mean of the two middle samples when n is even).  Throws on empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank q-quantile, or nullopt when fewer than kMinBeyond samples lie
/// beyond it (the rule refuses tails the run cannot support).
[[nodiscard]] std::optional<double> tail(std::vector<double> v, double q);

/// The highest of p75/p90/p95/p99/p99.9 that n samples support, or nullopt.
[[nodiscard]] std::optional<double> highest_supported_quantile(std::size_t n);

[[nodiscard]] double mean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

using clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

/// One timed interval.  `name` is "<layer>.<what>"; every span of one clip,
/// job or experiment carries that unit's `group` id.
struct span {
  std::string name;
  std::uint64_t group = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;

  [[nodiscard]] std::string layer() const;
};

/// In-memory span store.  Spans nest per thread: a span opened while another
/// is open on the same thread becomes its child.
class tracer {
 public:
  [[nodiscard]] int open(std::string name, std::uint64_t group);
  void close(int id);
  /// Records an already-measured interval (no nesting bookkeeping).
  int record(std::string name, std::uint64_t group, std::int64_t start_ns,
             std::int64_t end_ns, int parent = -1);

  [[nodiscard]] std::vector<span> spans() const;
  [[nodiscard]] std::size_t size() const;
  /// Spans recorded from index `first` on, parents rebased into the slice
  /// (parents outside it become roots).
  [[nodiscard]] std::vector<span> spans_from(std::size_t first) const;
  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex m_;
  std::vector<span> spans_;
};

/// RAII span; a null tracer makes it free.
class scoped_span {
 public:
  scoped_span(tracer* t, std::string name, std::uint64_t group)
      : t_(t), id_(t ? t->open(std::move(name), group) : -1) {}
  ~scoped_span() {
    if (t_) t_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<span>& spans);

/// Per span name: number of spans and mean self time in microseconds.
struct name_stats {
  std::size_t count = 0;
  double mean_self_us = 0.0;
  double total_self_us = 0.0;
};
[[nodiscard]] std::map<std::string, name_stats> self_time_by_name(
    const std::vector<span>& spans);

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// Time source of the generator, replaceable by a fake in tests.  Seconds.
class time_source {
 public:
  virtual ~time_source() = default;
  [[nodiscard]] virtual double now() = 0;
  virtual void sleep_until(double t) = 0;
};

class steady_time final : public time_source {
 public:
  double now() override;
  void sleep_until(double t) override;
};

/// What happened to one scheduled request.
struct request_timing {
  double due = 0.0;   ///< t0 + index / rate
  double sent = 0.0;  ///< when a client thread actually issued it
  double done = 0.0;
  bool ok = false;
  [[nodiscard]] double latency() const { return done - due; }
  [[nodiscard]] double lateness() const { return sent - due; }
};

/// Issues `count` requests with request i due at t0 + i / rate, spread over
/// `threads` client threads (each waits for its reply before taking the
/// next due request).  `send(i)` performs request i and reports success;
/// a `send` that throws counts as a failure.
/// Latency counts from the due time, so a stalled generator shows up as
/// latency and as lateness.
[[nodiscard]] std::vector<request_timing> run_open_loop(
    time_source& clock, double t0, double rate, std::size_t count,
    int threads, const std::function<bool(std::size_t)>& send);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// Ordered metric set; rejects invalid, duplicate or non-finite entries.
class metric_set {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }
  [[nodiscard]] const std::string& unit(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with all significant digits.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

[[nodiscard]] std::string json_number(double v);
/// printf-style formatting into a std::string.
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
