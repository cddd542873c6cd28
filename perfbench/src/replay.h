// Layer-by-layer replay of app::summarize's frame loop.
//
// The traced run cannot see inside summarize(), so after each traced clip
// it replays the same frames through the layers' public functions, in the
// order the frame loop calls them, with a span around every call.  The
// replay handles the baseline VS variant, unhardened, at any gate level.
#pragma once

#include <cstdint>

#include "app/config.h"
#include "core.h"
#include "gate/gate.h"
#include "video/generator.h"

namespace perfbench {

/// What the replay saw, for cross-checking against summarize's run_stats
/// and for the ratios run_stats does not carry.
struct replay_counts {
  int stitched = 0;
  int mini_panoramas = 0;
  int gated_skip = 0;
  int gated_delta = 0;
  int homography = 0;
  int affine = 0;
  std::uint64_t accepted_matches = 0;  ///< matches behind accepted models
  std::uint64_t accepted_inliers = 0;  ///< their RANSAC inliers
};

/// Span names the replay records.  Probes are extra calls made only to
/// split a layer's time (they are not part of the frame loop's work).
inline constexpr const char* kProbeSpan = "features.fast";

[[nodiscard]] replay_counts replay_clip(const vs::video::video_source& source,
                                        const vs::app::pipeline_config& config,
                                        vs::gate::level level, tracer* tr,
                                        std::uint64_t group);

}  // namespace perfbench
