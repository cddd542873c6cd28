#include "replay.h"

#include <optional>

#include "features/fast.h"
#include "features/orb.h"
#include "gate/change.h"
#include "gate/extrapolate.h"
#include "geometry/homography.h"
#include "geometry/ransac.h"
#include "match/matcher.h"
#include "stitch/stitcher.h"

namespace perfbench {

namespace {

using namespace vs;

struct model {
  geo::mat3 transform;
  bool affine = false;
  std::size_t matches = 0;
  std::size_t inliers = 0;
};

/// stitch::align_frames' cascade (homography, then affine fallback, both
/// under the plausibility and motion-prior checks), split so matching and
/// estimation get their own spans.
std::optional<model> align(const feat::frame_features& cur,
                           const feat::frame_features& prev,
                           const app::pipeline_config& config,
                           std::uint64_t seed, tracer* tr,
                           std::uint64_t group) {
  std::vector<geo::point_pair> pairs;
  {
    const scoped_span s(tr, "match.descriptors", group);
    const auto matches =
        match::match_descriptors(cur, prev, config.matcher());
    pairs = match::to_point_pairs(matches, cur, prev);
  }
  const scoped_span s(tr, "geometry.ransac", group);
  const auto& p = config.alignment;
  const auto within_motion_prior = [&](const geo::mat3& m) {
    const geo::vec2 center{64.0, 48.0};
    return geo::distance(center, m.apply(center)) <= p.max_motion;
  };
  const auto accept = [&](const std::optional<geo::ransac_result>& fit) {
    return fit && geo::plausible_homography(fit->model, p.max_scale) &&
           within_motion_prior(fit->model);
  };
  if (pairs.size() >= p.min_matches_homography) {
    const auto fit = geo::ransac_homography(pairs, p.homography, seed);
    if (accept(fit)) {
      return model{fit->model, false, pairs.size(), fit->inlier_count};
    }
  }
  if (pairs.size() >= p.min_matches_affine) {
    const auto fit = geo::ransac_affine(pairs, p.affine, seed ^ 1);
    if (accept(fit)) {
      return model{fit->model, true, pairs.size(), fit->inlier_count};
    }
  }
  return std::nullopt;
}

}  // namespace

replay_counts replay_clip(const video::video_source& source,
                          const app::pipeline_config& config,
                          gate::level level, tracer* tr, std::uint64_t group) {
  const bool gating = level != gate::level::off;
  const auto& gc = config.gate;
  replay_counts n;

  stitch::mini_panorama_builder builder(config.max_panorama_pixels,
                                        config.gain_compensation);
  geo::mat3 cumulative = geo::mat3::identity();
  feat::frame_features prev;
  bool have_reference = false;
  int consecutive_discards = 0;
  gate::runtime_state g;
  g.cache.configure(gc.cache_capacity, gc.cache_max_age);

  const auto reset = [&] {
    builder = stitch::mini_panorama_builder(config.max_panorama_pixels,
                                            config.gain_compensation);
    cumulative = geo::mat3::identity();
    have_reference = false;
    consecutive_discards = 0;
  };
  const auto close = [&] {
    if (!builder.empty()) {
      const scoped_span s(tr, "stitch.render", group);
      if (!builder.render().empty()) ++n.mini_panoramas;
    }
    reset();
  };
  const auto add = [&](const img::image_u8& frame, const geo::mat3& m) {
    const scoped_span s(tr, "stitch.add_frame", group);
    return builder.add_frame(frame, m);
  };
  const auto note_reference_frame = [&](const img::image_u8& frame) {
    if (!gating || !gate::roi_enabled(level)) return;
    g.ref_frame = frame;
    if (gate::cache_enabled(level)) g.cache.refill(prev);
  };
  // A frame that could not be placed under its model re-anchors a fresh
  // mini-panorama (the frame loop's hard view-change handling).
  const auto re_anchor = [&](const img::image_u8& frame,
                             feat::frame_features&& features) {
    close();
    if (add(frame, geo::mat3::identity())) {
      ++n.stitched;
      prev = std::move(features);
      have_reference = true;
      note_reference_frame(frame);
    }
  };

  for (int index = 0; index < source.frame_count(); ++index) {
    const scoped_span frame_span(tr, "app.frame", group);
    img::image_u8 frame;
    {
      const scoped_span s(tr, "video.frame", group);
      frame = source.frame(index);
    }

    gate::frame_class cls = gate::frame_class::full;
    bool delta_mode = false;
    gate::roi_plan plan;
    gate::extrapolation extra;
    if (gating) {
      img::image_u8 thumb;
      gate::change_stats stats;
      {
        const scoped_span s(tr, "gate.change", group);
        thumb = gate::make_thumb(frame, gc.thumb_factor);
        if (g.have_ref && have_reference) {
          stats = gate::change_score_clean(thumb, g.ref_thumb, gc.thumb_search,
                                           gc.thumb_factor);
        }
      }
      g.last_score = stats.score;
      const bool can_skip = gate::skip_enabled(level) && g.have_ref &&
                            have_reference &&
                            g.consecutive_skips < gc.max_consecutive_skips;
      const bool can_delta = gate::roi_enabled(level) && have_reference &&
                             !g.ref_frame.empty() &&
                             g.consecutive_deltas < gc.max_consecutive_deltas;
      cls = gate::classify(stats, gc, can_skip, can_delta);
      if (cls == gate::frame_class::skip) {
        ++g.consecutive_skips;
      } else {
        g.ref_thumb = std::move(thumb);
        g.have_ref = true;
        g.consecutive_skips = 0;
      }
      if (cls == gate::frame_class::delta) {
        const scoped_span s(tr, "gate.extrapolate", group);
        const geo::mat3 prior = geo::mat3::translation(
            -double(stats.shift_x), -double(stats.shift_y));
        extra = gate::extrapolate_alignment(frame, g.ref_frame, prior, gc);
        if (extra.valid) {
          plan = gate::predict_roi(extra.delta, frame.width(), frame.height());
        }
        delta_mode = extra.valid && plan.valid;
        if (!delta_mode) cls = gate::frame_class::full;
      }
      if (cls == gate::frame_class::full) g.consecutive_deltas = 0;
    }

    if (cls == gate::frame_class::skip) {
      ++n.gated_skip;
      ++n.stitched;
      continue;
    }

    feat::frame_features features;
    if (delta_mode) {
      const scoped_span s(tr, "gate.roi_extract", group);
      features = gate::extract_roi(frame, plan.fresh, config.orb, gc.roi_margin);
    } else {
      {
        const scoped_span s(tr, kProbeSpan, group);
        (void)feat::fast_detect(frame, config.orb.fast);
      }
      const scoped_span s(tr, "features.orb", group);
      features = feat::orb_extract(frame, config.orb);
    }

    if (delta_mode) {
      ++n.gated_delta;
      ++g.consecutive_deltas;
      feat::frame_features carried;
      {
        const scoped_span s(tr, "gate.reuse", group);
        const int w = frame.width();
        const int h = frame.height();
        const int border = config.orb.fast.border;
        if (const auto inv = extra.delta.inverse()) {
          if (gate::cache_enabled(level)) {
            g.cache.rebase(*inv, w, h, border);
            g.cache.insert(features);
            carried = g.cache.snapshot();
          } else {
            carried = gate::rebase_features(prev, *inv, w, h, border);
            for (std::size_t i = 0; i < features.size(); ++i) {
              carried.keypoints.push_back(features.keypoints[i]);
              carried.descriptors.push_back(features.descriptors[i]);
            }
          }
        } else {
          carried = features;
        }
      }
      const geo::mat3 frame_to_anchor = cumulative * extra.delta;
      if (add(frame, frame_to_anchor)) {
        cumulative = frame_to_anchor;
        prev = std::move(carried);
        ++n.stitched;
        consecutive_discards = 0;
        g.ref_frame = frame;
      } else {
        re_anchor(frame, std::move(carried));
      }
      continue;
    }

    if (!have_reference) {
      if (add(frame, geo::mat3::identity())) {
        ++n.stitched;
        prev = std::move(features);
        have_reference = true;
        consecutive_discards = 0;
        note_reference_frame(frame);
      }
      continue;
    }

    const auto aligned =
        align(features, prev, config,
              config.seed + static_cast<std::uint64_t>(index) * 7919u, tr,
              group);
    if (!aligned) {
      if (++consecutive_discards > config.discard_limit) {
        re_anchor(frame, std::move(features));
      }
      continue;
    }
    ++(aligned->affine ? n.affine : n.homography);
    n.accepted_matches += aligned->matches;
    n.accepted_inliers += aligned->inliers;

    const geo::mat3 frame_to_anchor = cumulative * aligned->transform;
    if (add(frame, frame_to_anchor)) {
      cumulative = frame_to_anchor;
      prev = std::move(features);
      ++n.stitched;
      consecutive_discards = 0;
      note_reference_frame(frame);
    } else {
      re_anchor(frame, std::move(features));
    }
  }
  close();
  return n;
}

}  // namespace perfbench
