// campaign_gpr: the paper's own apparatus — fault::run_campaign for VS,
// GPR class, on a 20-frame Input 1 clip at threads = nproc.
//
// Set-up is fault::measure_golden.  The measured loop cycles over a few
// seeded campaigns; every repetition of a campaign must reproduce its first
// outcome distribution exactly, and the reference campaign `VS gpr 120 10` must
// reproduce ci/golden_campaign.txt.  The traced phase repeats the same
// campaign with a span around every experiment, so each execution time can
// be attributed to the outcome run_campaign classified it as.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <map>
#include <thread>

#include "app/pipeline.h"
#include "bench.h"
#include "fault/campaign.h"
#include "rt/instrument.h"
#include "video/generator.h"

namespace perfbench {

namespace {

using namespace vs;

constexpr int kFrames = 20;
constexpr int kInjections = 200;  ///< experiments per run_campaign call
/// Distinct campaign seeds a run cycles over.  Experiment cost depends on
/// the outcome mix and on the share of dead-register strikes (masked without
/// running), which one 200-experiment plan samples coarsely.
constexpr int kCampaigns = 8;

/// "masked 57.50\ncrash 38.33\nsdc 4.17\nhang 0.00\n", the golden format.
std::string distribution(const fault::outcome_rates& r) {
  return strf("masked %.2f\ncrash %.2f\nsdc %.2f\nhang %.2f\n",
              100.0 * r.rate(fault::outcome::masked), 100.0 * r.crash_rate(),
              100.0 * r.rate(fault::outcome::sdc),
              100.0 * r.rate(fault::outcome::hang));
}

std::string read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line, out;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') out += line + "\n";
  }
  return out;
}

bool same_counts(const fault::outcome_rates& a, const fault::outcome_rates& b) {
  return a.experiments == b.experiments && a.masked == b.masked &&
         a.sdc == b.sdc && a.crash_segfault == b.crash_segfault &&
         a.crash_abort == b.crash_abort && a.hang == b.hang &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_degraded == b.detected_degraded;
}

}  // namespace

void run_campaign_gpr(const context& ctx, run_result& out) {
  app::pipeline_config config;
  config.gate.request = static_cast<int>(gate::level::off);
  const auto source = video::make_input(video::input_id::input1, kFrames);

  std::vector<fault::campaign_config> campaigns(kCampaigns);
  for (int k = 0; k < kCampaigns; ++k) {
    auto& cc = campaigns[k];
    cc.cls = rt::reg_class::gpr;
    cc.injections = kInjections;
    cc.seed = 2018 + mix(ctx.seed * kCampaigns + k) % 100000;
    cc.threads = static_cast<int>(ctx.nproc);
  }

  // Every call of the workload is one experiment's execution (or the golden
  // run).  While a phase is measured the call is timed; in the traced phase
  // it also becomes a span whose group is the experiment index, recovered
  // from the injection plan armed on the calling thread.
  struct call {
    std::size_t index;  ///< experiment index, kInjections for the golden run
    double ms;
  };
  std::mutex m;
  std::vector<call> calls;
  std::atomic<bool> timing{false};
  tracer* tr = nullptr;
  std::uint64_t group_base = 0;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::size_t> plan_index;
  const fault::workload work = [&] {
    std::size_t index = kInjections;
    if (rt::tls.armed) {
      const auto it = plan_index.find({rt::tls.target, rt::tls.bit});
      if (it != plan_index.end()) index = it->second;
    }
    struct timer {
      std::mutex& m;
      std::vector<call>& out;
      std::size_t index;
      bool on;
      std::int64_t t0 = now_ns();
      ~timer() {
        if (!on) return;
        const double ms = static_cast<double>(now_ns() - t0) / 1e6;
        const std::lock_guard<std::mutex> lock(m);
        out.push_back({index, ms});
      }
    } t{m, calls, index, timing.load()};
    const scoped_span s(tr,
                        index == kInjections ? "fault.golden"
                                             : "fault.experiment",
                        group_base + index);
    return app::summarize(*source, config).panorama;
  };

  // --- set-up: the golden run ---------------------------------------------------
  fault::campaign_setup setup;
  out.e2e.add("setup_s", median_setup_seconds(kSetupReps, [&](int) {
                setup = fault::measure_golden(work, campaigns[0]);
              }),
              "s");

  // --- measured phases: repeated run_campaign ------------------------------------
  std::vector<fault::outcome_rates> first_rates(kCampaigns);
  std::vector<bool> have_first(kCampaigns, false);
  std::vector<double> outcome_ms[4];  // masked, crash, sdc, hang
  std::size_t dead = 0;
  std::size_t planned = 0;
  const auto measure = [&](metric_set& e2e, const char* label) {
    double wall = 0;
    std::size_t experiments = 0;
    std::vector<double> call_ms;
    const auto deadline =
        now_ns() + static_cast<std::int64_t>(ctx.phase_seconds() * 1e9);
    for (int rep = 0; now_ns() < deadline; ++rep) {
      const int k = rep % kCampaigns;
      const auto& cc = campaigns[k];
      plan_index.clear();
      for (std::size_t i = 0; i < kInjections; ++i) {
        const auto p = fault::plan_experiment(cc, setup.total_ops, i).plan;
        plan_index[{p.target, p.bit}] = i;
      }
      calls.clear();
      timing = true;
      const auto t0 = now_ns();
      fault::campaign_result result;
      {
        const scoped_span s(tr, "fault.campaign", group_base + kInjections + 1);
        result = fault::run_campaign(work, cc);
      }
      wall += static_cast<double>(now_ns() - t0) / 1e9;
      timing = false;
      group_base += kInjections + 2;
      experiments += result.records.size();
      out.attempted += result.records.size();
      if (!have_first[k]) {
        first_rates[k] = result.rates;
        have_first[k] = true;
      } else if (!same_counts(result.rates, first_rates[k])) {
        out.failed += result.records.size();
        out.fail_check(strf("campaign %d repetition %d distribution differs: ",
                            k, rep) +
                       distribution(result.rates));
      }
      for (const auto& c : calls) {
        call_ms.push_back(c.ms);
        if (c.index == kInjections) continue;
        switch (result.records[c.index].result) {
          case fault::outcome::masked:
            outcome_ms[0].push_back(c.ms);
            break;
          case fault::outcome::sdc:
            outcome_ms[2].push_back(c.ms);
            break;
          case fault::outcome::hang:
            outcome_ms[3].push_back(c.ms);
            break;
          default:
            outcome_ms[1].push_back(c.ms);
            break;
        }
      }
      for (const auto& r : result.records) dead += r.register_live ? 0 : 1;
      planned += result.records.size();
    }
    const double rate = static_cast<double>(experiments) / wall;
    e2e.add("work_per_s", rate, "1/s");
    out.report.push_back(
        strf("%s: campaign_exp_per_s=%.2f (%zu experiments in %.2f s) ",
             label, rate, experiments, wall) +
        add_latency(&e2e, call_ms, "experiment_ms_p{}", 0.90,
                    /*require_tail=*/&e2e == &out.e2e && !ctx.trace));
  };
  measure(out.e2e, "untraced");
  out.peak_rss_mb = self_peak_rss_mb();
  // --- checker: the reference campaign reproduces its golden ----------------
  {
    const auto ref_source = video::make_input(video::input_id::input1, 10);
    app::pipeline_config ref_config;
    const fault::workload ref_work = [&] {
      return app::summarize(*ref_source, ref_config).panorama;
    };
    fault::campaign_config ref;
    ref.cls = rt::reg_class::gpr;
    ref.injections = 120;
    ref.threads = static_cast<int>(ctx.nproc);
    const auto got = distribution(fault::run_campaign(ref_work, ref).rates);
    if (got != read_golden(ctx.golden_path)) {
      out.fail_check("VS gpr 120 10 distribution differs from " +
                     ctx.golden_path + ": " + got);
    }
  }
  for (int k = 0; k < kCampaigns && have_first[k]; ++k) {
    std::string dist = distribution(first_rates[k]);
    dist.pop_back();  // trailing newline
    std::replace(dist.begin(), dist.end(), '\n', ' ');
    out.report.push_back(strf("campaign %d (seed %llu): ", k,
                              static_cast<unsigned long long>(
                                  campaigns[k].seed)) +
                         dist);
  }
  if (!ctx.trace) return;

  for (auto& v : outcome_ms) v.clear();
  dead = planned = 0;
  tr = &out.spans;
  {
    const scoped_span s(tr, "fault.golden", 0);
    setup = fault::measure_golden(work, campaigns[0]);
  }
  out.e2e_traced.add("setup_s", out.e2e.value("setup_s"), "s");
  measure(out.e2e_traced, "traced");
  tr = nullptr;

  auto& L = out.layers;
  const auto by_name = self_time_by_name(out.spans.spans());
  L.add("fault.golden_ms", by_name.at("fault.golden").mean_self_us / 1e3, "ms");
  std::vector<double> experiment_ms;
  for (const auto& v : outcome_ms) {
    experiment_ms.insert(experiment_ms.end(), v.begin(), v.end());
  }
  L.add("fault.experiment_ms", median(experiment_ms), "ms");
  L.add("fault.masked_ms", mean(outcome_ms[0]), "ms");
  L.add("fault.crash_ms", mean(outcome_ms[1]), "ms");
  L.add("fault.sdc_ms", mean(outcome_ms[2]), "ms");
  L.add("fault.hang_ms", mean(outcome_ms[3]), "ms");
  L.add("fault.dead_register_frac",
        static_cast<double>(dead) / static_cast<double>(planned), "ratio");
  L.add("rt.ops_per_run", static_cast<double>(setup.total_ops), "count");
}

}  // namespace perfbench
