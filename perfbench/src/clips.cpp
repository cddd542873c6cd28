// clip_busy / clip_gated: batch summarization of pre-rendered clips.
//
// Set-up renders a few replicas of the input into video::frame_list sources
// (so summarize time excludes the synthetic renderer, which is reported
// separately as video.render_us).  The measured loop cycles app::summarize
// over the replicas at pool width = nproc, and every montage must hash-equal
// (fault::wire::hash_image: dimensions + every byte) the instrumented lane's
// (rt::session) montage of the same replica at the same gate level.
#include <memory>

#include "app/pipeline.h"
#include "bench.h"
#include "core/thread_pool.h"
#include "fault/wire.h"
#include "pipeline/scheduler.h"
#include "quality/metric.h"
#include "replay.h"
#include "rt/instrument.h"

namespace perfbench {

namespace {

using namespace vs;

constexpr int kFrames = 120;

/// Replicas differ in how much work they hold (per-replica summarize time
/// varies by ~13% on Input 1 and ~24% on gated Input 2), so a run cycles
/// over enough of them that the seed's choice moves the mean little.
struct clip_spec {
  video::input_id input;
  gate::level level;
  int replicas;
};

app::pipeline_config clip_config(gate::level level) {
  app::pipeline_config config;
  config.gate.request = static_cast<int>(level);
  return config;
}

/// Per-clip observations of one measured phase.
struct phase {
  std::vector<double> clip_ms;
  double summarize_s = 0.0;
  std::uint64_t frames = 0;
};

void add_e2e(metric_set& m, const phase& p, const char* label,
             run_result& out, bool require_tail) {
  const double fps = static_cast<double>(p.frames) / p.summarize_s;
  m.add("work_per_s", fps, "1/s");
  out.report.push_back(
      strf("%s: frames_per_s=%.2f ", label, fps) +
      add_latency(&m, p.clip_ms, "clip_ms_p{}", 0.90, require_tail));
}

void run_clips(const context& ctx, const clip_spec& spec, run_result& out) {
  core::thread_pool::set_global_threads(ctx.nproc);
  const app::pipeline_config config = clip_config(spec.level);

  // The seed picks which flight-path replicas the run cycles over.
  std::vector<int> replicas;
  for (int k = 0; k < spec.replicas; ++k) {
    replicas.push_back(static_cast<int>(mix(ctx.seed * 1024 + k) % 100000));
  }

  // --- set-up: pre-render every replica, one replica per thread (median
  // of kSetupReps) ------------------------------------------------------------
  std::vector<std::unique_ptr<video::frame_list>> clips(replicas.size());
  std::vector<double> render_us(replicas.size() * kFrames);
  out.e2e.add("setup_s", median_setup_seconds(kSetupReps, [&](int) {
                // Free the previous set-up's frames first, so repeated
                // set-ups do not stack up in peak RSS.
                for (auto& clip : clips) clip.reset();
                parallel_indices(replicas.size(), ctx.nproc, [&](std::size_t r) {
                  const auto src =
                      video::make_input(spec.input, kFrames, replicas[r]);
                  std::vector<img::image_u8> frames;
                  for (int i = 0; i < kFrames; ++i) {
                    const auto t0 = now_ns();
                    frames.push_back(src->frame(i));
                    render_us[r * kFrames + static_cast<std::size_t>(i)] =
                        static_cast<double>(now_ns() - t0) / 1e3;
                  }
                  clips[r] =
                      std::make_unique<video::frame_list>(std::move(frames));
                });
              }),
              "s");
  out.report.push_back(
      "clips are pre-rendered frame lists; BENCH_gate.json (bench/"
      "gate_realtime) still times the renderer inside its pipeline");

  // --- measured phase(s) ----------------------------------------------------
  // Each montage is hashed (outside the timed call) and checked against the
  // instrumented lane after measurement, so the checker's own runs stay out
  // of the timings and out of peak RSS.
  std::vector<std::pair<std::size_t, std::uint64_t>> montages;
  const auto measure = [&](tracer* tr, std::vector<app::run_stats>* stats,
                           std::vector<replay_counts>* replays,
                           std::vector<double>* gaps_ms) {
    phase p;
    const auto deadline = now_ns() + static_cast<std::int64_t>(
                                         ctx.phase_seconds() * 1e9);
    for (std::size_t i = 0; now_ns() < deadline; ++i) {
      const std::size_t r = i % clips.size();
      const std::uint64_t group = i + 1;
      const scoped_span clip_span(tr, "app.clip", group);
      app::summary_result result;
      const auto t0 = now_ns();
      {
        const scoped_span s(tr, "app.summarize", group);
        result = app::summarize(*clips[r], config);
      }
      const double dt = static_cast<double>(now_ns() - t0) / 1e9;
      p.summarize_s += dt;
      p.clip_ms.push_back(dt * 1e3);
      p.frames += kFrames;
      montages.emplace_back(r, fault::wire::hash_image(result.panorama));
      if (tr == nullptr) continue;
      stats->push_back(result.stats);
      const std::size_t first = tr->size();
      {
        const scoped_span s(tr, "app.replay", group);
        replays->push_back(
            replay_clip(*clips[r], config, spec.level, tr, group));
      }
      // Gap = summarize wall time minus the replayed stages' self time
      // (probes and the replay's own loop bookkeeping excluded).
      double stage_us = 0.0;
      for (const auto& [name, st] : self_time_by_name(tr->spans_from(first))) {
        if (name != kProbeSpan && name.rfind("app.", 0) != 0) {
          stage_us += st.total_self_us;
        }
      }
      gaps_ms->push_back(dt * 1e3 - stage_us / 1e3);
    }
    return p;
  };

  const phase untraced = measure(nullptr, nullptr, nullptr, nullptr);
  add_e2e(out.e2e, untraced, "untraced", out, /*require_tail=*/!ctx.trace);
  out.peak_rss_mb = self_peak_rss_mb();

  std::vector<app::run_stats> stats;
  std::vector<replay_counts> replays;
  std::vector<double> gaps_ms;
  if (ctx.trace) {
    const phase traced = measure(&out.spans, &stats, &replays, &gaps_ms);
    out.e2e_traced.add("setup_s", out.e2e.value("setup_s"), "s");
    add_e2e(out.e2e_traced, traced, "traced", out, /*require_tail=*/false);
  }

  // --- checker: the instrumented lane's montage of every replica ----------
  std::vector<std::uint64_t> reference(clips.size());
  std::vector<double> rel_l2(clips.size(), 0.0);
  parallel_indices(clips.size(), ctx.nproc, [&](std::size_t r) {
    img::image_u8 gated;
    {
      const rt::session instrumented;
      gated = app::summarize(*clips[r], config).panorama;
    }
    reference[r] = fault::wire::hash_image(gated);
    if (ctx.trace && spec.level != gate::level::off) {
      const auto ungated =
          app::summarize(*clips[r], clip_config(gate::level::off)).panorama;
      rel_l2[r] = quality::compare_images(ungated, gated).relative_l2_norm;
    }
  });
  for (std::size_t i = 0; i < montages.size(); ++i) {
    const auto [r, hash] = montages[i];
    ++out.attempted;
    if (hash != reference[r]) {
      ++out.failed;
      out.fail_check("clip " + std::to_string(i) + " (replica " +
                     std::to_string(replicas[r]) +
                     ") montage differs from the instrumented lane");
    }
  }
  if (!ctx.trace) return;

  // Batching counters: one more summarize per replica, untimed, on a
  // scheduler passed in through pipeline_config::scheduler (a run's own
  // private scheduler is not observable).  The timed loops keep the default
  // per-run scheduler, which is what a `vs summarize` user gets.
  pipeline::stage_scheduler::options opt;
  opt.batch = pipeline::resolve_batch(pipeline::kBatchInherit);
  opt.pool = &core::thread_pool::global();
  std::unique_ptr<pipeline::stage_scheduler> sched;
  if (opt.batch != pipeline::kBatchOff) {
    sched = std::make_unique<pipeline::stage_scheduler>(opt);
    app::pipeline_config probe = config;
    probe.scheduler = sched.get();
    for (std::size_t r = 0; r < clips.size(); ++r) {
      if (fault::wire::hash_image(app::summarize(*clips[r], probe).panorama) !=
          reference[r]) {
        out.fail_check("montage under a shared scheduler differs (replica " +
                       std::to_string(replicas[r]) + ")");
      }
    }
  }

  // --- per-layer metrics ------------------------------------------------------
  const auto by_name = self_time_by_name(out.spans.spans());
  const auto mean_us = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.mean_self_us;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  double total = 0, skipped = 0, delta = 0, discarded = 0, minis = 0,
         keypoints = 0, reused = 0, matches = 0, homography = 0, affine = 0;
  for (const auto& s : stats) {
    total += s.frames_total;
    skipped += s.frames_gated_skip;
    delta += s.frames_gated_delta;
    discarded += s.frames_discarded;
    minis += s.mini_panoramas;
    keypoints += static_cast<double>(s.keypoints_detected);
    reused += static_cast<double>(s.keypoints_reused);
    matches += static_cast<double>(s.total_matches);
    homography += s.homography_alignments;
    affine += s.affine_alignments;
  }
  double inliers = 0, inlier_matches = 0;
  int replay_mismatch = 0;
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const auto& rp = replays[i];
    inliers += static_cast<double>(rp.accepted_inliers);
    inlier_matches += static_cast<double>(rp.accepted_matches);
    const auto& s = stats[i];
    if (rp.stitched != s.frames_stitched ||
        rp.mini_panoramas != s.mini_panoramas ||
        rp.gated_skip != s.frames_gated_skip ||
        rp.gated_delta != s.frames_gated_delta ||
        rp.homography != s.homography_alignments ||
        rp.affine != s.affine_alignments) {
      ++replay_mismatch;
    }
  }
  if (replay_mismatch > 0) {
    out.report.push_back("layer replay diverged from run_stats on " +
                         std::to_string(replay_mismatch) + " of " +
                         std::to_string(replays.size()) + " clips");
  }
  const double clips_n = static_cast<double>(stats.size());
  auto& L = out.layers;
  L.add("features.fast_us", mean_us("features.fast"), "us");
  L.add("features.orb_us", mean_us("features.orb"), "us");
  L.add("features.describe_us",
        mean_us("features.orb") - mean_us("features.fast"), "us");
  L.add("features.keypoints", ratio(keypoints, total - skipped), "count");
  L.add("gate.change_us", mean_us("gate.change"), "us");
  L.add("gate.roi_extract_us", mean_us("gate.roi_extract"), "us");
  L.add("gate.skip_frac", ratio(skipped, total), "ratio");
  L.add("gate.delta_frac", ratio(delta, total), "ratio");
  L.add("gate.keypoints_reused", ratio(reused, clips_n), "count");
  L.add("gate.summary_rel_l2", mean(rel_l2), "%");
  L.add("match.us", mean_us("match.descriptors"), "us");
  L.add("match.matches", ratio(matches, homography + affine), "count");
  L.add("geometry.ransac_us", mean_us("geometry.ransac"), "us");
  L.add("geometry.inlier_frac", ratio(inliers, inlier_matches), "ratio");
  L.add("geometry.affine_frac", ratio(affine, homography + affine), "ratio");
  L.add("stitch.add_frame_us", mean_us("stitch.add_frame"), "us");
  L.add("stitch.render_us", mean_us("stitch.render"), "us");
  L.add("app.summarize_ms", mean_us("app.summarize") / 1e3, "ms");
  L.add("app.minis_per_clip", ratio(minis, clips_n), "count");
  L.add("app.discard_frac", ratio(discarded, total), "ratio");
  L.add("pipeline.gap_ms", mean(gaps_ms), "ms");
  if (sched) {
    const auto s = sched->stats();
    L.add("pipeline.frames_per_batch",
          ratio(static_cast<double>(s.frames), static_cast<double>(s.batches)),
          "count");
    L.add("pipeline.inline_batch_frac",
          ratio(static_cast<double>(s.inline_batches),
                static_cast<double>(s.batches)),
          "ratio");
  }
  L.add("video.render_us", mean(render_us), "us");
}

}  // namespace

void run_clip_busy(const context& ctx, run_result& out) {
  run_clips(ctx, {video::input_id::input1, gate::level::off, 24}, out);
}

void run_clip_gated(const context& ctx, run_result& out) {
  run_clips(ctx, {video::input_id::input2, gate::level::all, 48}, out);
}

}  // namespace perfbench
