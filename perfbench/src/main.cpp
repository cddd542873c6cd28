// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --vs PATH --golden PATH --out DIR [--serve-limit-ms MS]
//             [--commit ID]
//   perfbench --list-metrics
//
// Runs one workload for S seconds and prints a human-readable report
// followed, as the last line of stdout, by one JSON object
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (the
// traced run also measures an untraced phase and reports the tracing
// overhead).  Exits 1 when any output check fails.  Normally launched by
// perfbench/run.py, which builds the program first.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "core/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

const std::vector<metric_def> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"work_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

const std::vector<metric_def> kPerLayer = {
    {"features.fast_us", "us"},
    {"features.orb_us", "us"},
    {"features.describe_us", "us"},
    {"features.keypoints", "count"},
    {"gate.change_us", "us"},
    {"gate.roi_extract_us", "us"},
    {"gate.skip_frac", "ratio"},
    {"gate.delta_frac", "ratio"},
    {"gate.keypoints_reused", "count"},
    {"gate.summary_rel_l2", "%"},
    {"match.us", "us"},
    {"match.matches", "count"},
    {"geometry.ransac_us", "us"},
    {"geometry.inlier_frac", "ratio"},
    {"geometry.affine_frac", "ratio"},
    {"stitch.add_frame_us", "us"},
    {"stitch.render_us", "us"},
    {"app.summarize_ms", "ms"},
    {"app.minis_per_clip", "count"},
    {"app.discard_frac", "ratio"},
    {"pipeline.gap_ms", "ms"},
    {"pipeline.frames_per_batch", "count"},
    {"pipeline.inline_batch_frac", "ratio"},
    {"video.render_us", "us"},
    {"video.make_input_ms", "ms"},
    {"serve.accept_ms", "ms"},
    {"serve.first_pano_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.rejected_frac", "ratio"},
    {"serve.queue_depth", "count"},
    {"core.pool_peak_in_use", "count"},
    {"serve.gen_late_ms", "ms"},
    {"fault.golden_ms", "ms"},
    {"fault.experiment_ms", "ms"},
    {"fault.masked_ms", "ms"},
    {"fault.crash_ms", "ms"},
    {"fault.sdc_ms", "ms"},
    {"fault.hang_ms", "ms"},
    {"fault.dead_register_frac", "ratio"},
    {"rt.ops_per_run", "count"},
    {"trace.overhead_pct", "%"},
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double self_peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

void parallel_indices(std::size_t count, unsigned threads,
                      const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex m;
  std::exception_ptr first_error;  // guarded by m
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i; (i = next++) < count;) fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m);
        if (!first_error) first_error = std::current_exception();
        next = count;
      }
    });
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::string add_latency(metric_set* m, const std::vector<double>& ms,
                        const std::string& name, double q, bool require_tail) {
  const auto spell = [&](double quantile) {
    std::string s = name;
    s.replace(s.find("{}"), 2, strf("%g", quantile * 100));
    return s;
  };
  const double p50 = median(ms);
  const auto t = tail(ms, q);
  if (!t && require_tail) {
    throw std::runtime_error(spell(q) + " refused: " +
                             std::to_string(ms.size()) +
                             " samples leave fewer than 10 beyond it");
  }
  if (m != nullptr) {
    m->add("latency_p50_ms", p50, "ms");
    if (t) m->add("latency_tail_ms", *t, "ms");
  }
  std::string out = strf("%s=%.3f %s=%s n=%zu", spell(0.5).c_str(), p50,
                         spell(q).c_str(),
                         t ? strf("%.3f", *t).c_str() : "refused", ms.size());
  if (const auto hq = highest_supported_quantile(ms.size())) {
    out += strf(" (highest supported %s=%.3f)", spell(*hq).c_str(),
                *tail(ms, *hq));
  }
  return out;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --vs PATH --golden PATH --out DIR "
               "[--serve-limit-ms MS] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string host_json(const context& ctx, const std::string& commit) {
  return "{\"nproc\": " + std::to_string(ctx.nproc) + ", \"simd\": " +
         json_string(vs::core::simd::level_name(vs::core::simd::active())) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"commit\": " + json_string(commit) + "}";
}

void print_metrics(const char* kind, const metric_set& m) {
  for (const auto& name : m.names()) {
    std::printf("%-6s %-28s %14.6g %s\n", kind, name.c_str(), m.value(name),
                m.unit(name).c_str());
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  context ctx;
  std::string commit = "unknown";
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const auto& m : kEndToEnd) std::printf("e2e %s %s\n", m.name, m.unit);
      for (const auto& m : kPerLayer) {
        std::printf("layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      ctx.workload = v;
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::atof(v);
    } else if (a == "--trace") {
      trace_flag = std::atoi(v);
    } else if (a == "--vs") {
      ctx.vs_binary = v;
    } else if (a == "--golden") {
      ctx.golden_path = v;
    } else if (a == "--out") {
      ctx.out_dir = v;
    } else if (a == "--serve-limit-ms") {
      ctx.serve_limit_ms = std::atof(v);
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (trace_flag != 0 && trace_flag != 1) usage("--trace must be 0 or 1");
  if (ctx.seconds <= 0) usage("--seconds must be positive");
  if (ctx.out_dir.empty()) usage("--out is required");
  ctx.trace = trace_flag == 1;
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());

  const std::map<std::string, void (*)(const context&, run_result&)> table = {
      {"clip_busy", run_clip_busy},
      {"clip_gated", run_clip_gated},
      {"serve_open", run_serve_open},
      {"campaign_gpr", run_campaign_gpr},
  };
  const auto it = table.find(ctx.workload);
  if (it == table.end()) usage(("unknown workload " + ctx.workload).c_str());

  run_result r;
  try {
    it->second(ctx, r);
    r.e2e.add("peak_rss_mb", r.peak_rss_mb, "MB");
    if (ctx.trace) {
      r.e2e_traced.add("peak_rss_mb", r.e2e.value("peak_rss_mb"), "MB");
      const double u = r.e2e.value("work_per_s");
      const double t = r.e2e_traced.value("work_per_s");
      r.layers.add("trace.overhead_pct", u > 0 ? 100.0 * (u - t) / u : 0.0,
                   "%");
      for (const auto& m : kPerLayer) {
        if (!r.layers.has(m.name)) r.layers.add(m.name, 0.0, m.unit);
      }
    }
    for (const auto& m : kEndToEnd) {
      if (!ctx.trace && !r.e2e.has(m.name)) {
        throw std::logic_error(std::string("workload did not report ") +
                               m.name);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", ctx.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::string host = host_json(ctx, commit);
  std::printf("host   %s\n", host.c_str());
  std::printf("run    workload=%s seed=%llu seconds=%g trace=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, trace_flag);
  for (const auto& line : r.report) std::printf("note   %s\n", line.c_str());
  if (!ctx.trace) {
    print_metrics("e2e", r.e2e);
  } else {
    // Each phase ran for half the run, so a tail the rule refuses on one
    // side is shown as refused.
    std::printf("e2e    %-28s %14s %14s %9s\n", "(untraced vs traced)",
                "untraced", "traced", "diff");
    const auto cell = [](const metric_set& m, const char* name) {
      return m.has(name) ? strf("%14.6g", m.value(name)) : strf("%14s", "refused");
    };
    for (const auto& m : kEndToEnd) {
      const bool both = r.e2e.has(m.name) && r.e2e_traced.has(m.name);
      const double u = both ? r.e2e.value(m.name) : 0.0;
      const double t = both ? r.e2e_traced.value(m.name) : 0.0;
      std::printf("e2e    %-28s %s %s %9s %s\n", m.name,
                  cell(r.e2e, m.name).c_str(),
                  cell(r.e2e_traced, m.name).c_str(),
                  both && u != 0.0 ? strf("%+8.2f%%", 100.0 * (t - u) / u).c_str()
                                   : "",
                  m.unit);
    }
    print_metrics("layer", r.layers);
  }

  const metric_set& reported = ctx.trace ? r.layers : r.e2e;
  const std::string result = "{\"correct\": " +
                             std::string(r.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(r.attempted) +
                             ", \"failed\": " + std::to_string(r.failed) +
                             ", \"metrics\": " + reported.json() + "}";
  const std::string stem = ctx.out_dir + "/" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + "-trace" +
                           std::to_string(trace_flag);
  {
    std::ofstream out(stem + ".json");
    out << "{\"host\": " << host << ", \"workload\": "
        << json_string(ctx.workload) << ", \"seed\": " << ctx.seed
        << ", \"seconds\": " << json_number(ctx.seconds)
        << ", \"result\": " << result << ", \"end_to_end\": " << r.e2e.json()
        << ", \"end_to_end_traced\": " << r.e2e_traced.json() << "}\n";
  }
  if (ctx.trace) r.spans.write_chrome_trace(stem + ".trace.json");
  std::printf("%s\n", result.c_str());
  return r.correct ? 0 : 1;
}
