// Shared declarations of the benchmark's workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core.h"

namespace perfbench {

/// Command-line settings every workload sees.
struct context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string vs_binary;       ///< `vs` executable (serve_open)
  std::string golden_path;     ///< ci/golden_campaign.txt (campaign_gpr)
  std::string out_dir;         ///< result + trace files, serve_open's socket
  double serve_limit_ms = 250.0;  ///< goodput latency limit (serve_open)

  /// Seconds of one measured phase: the whole run untraced, or half of it
  /// when the run measures an untraced and a traced phase back to back.
  [[nodiscard]] double phase_seconds() const {
    return trace ? seconds / 2.0 : seconds;
  }
};

/// What one workload run produced.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  metric_set e2e;         ///< untraced end-to-end metrics
  metric_set e2e_traced;  ///< the same metrics from the traced phase
  metric_set layers;      ///< per-layer metrics (traced runs)
  std::vector<std::string> report;  ///< human-readable lines
  tracer spans;           ///< traced phase spans
  /// Peak RSS of the measured work, read before the checker runs (plus the
  /// server child's, for serve_open).
  double peak_rss_mb = 0.0;

  void fail_check(const std::string& what) {
    correct = false;
    report.push_back("CHECK FAILED: " + what);
  }
};

/// Splitmix64: derives independent streams from the workload seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// Median of `reps` timed calls of `setup` (the last call's state is kept
/// by the caller).  Seconds.
template <typename F>
double median_setup_seconds(int reps, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto start = now_ns();
    setup(i);
    t.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return median(t);
}

/// Peak resident set of this process so far, MB.
[[nodiscard]] double self_peak_rss_mb();

/// Runs fn(0..count-1) on up to `threads` threads.
void parallel_indices(std::size_t count, unsigned threads,
                      const std::function<void(std::size_t)>& fn);

/// Adds latency_p50_ms and latency_tail_ms (the q-quantile) of `ms` to `m`
/// (when non-null) and returns the report fragment, where `name` spells the
/// workload's own metric name with "{}" standing for the percentile
/// ("clip_ms_p{}").  A tail with fewer than kMinBeyond samples beyond it is
/// refused: left out, or an error when `require_tail`.
std::string add_latency(metric_set* m, const std::vector<double>& ms,
                        const std::string& name, double q, bool require_tail);

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 3;

void run_clip_busy(const context& ctx, run_result& out);
void run_clip_gated(const context& ctx, run_result& out);
void run_serve_open(const context& ctx, run_result& out);
void run_campaign_gpr(const context& ctx, run_result& out);

/// The end-to-end metric names every workload reports, with units.
struct metric_def {
  const char* name;
  const char* unit;
};
extern const std::vector<metric_def> kEndToEnd;
extern const std::vector<metric_def> kPerLayer;

}  // namespace perfbench
