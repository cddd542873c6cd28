// serve_open: open-loop traffic against `vs serve` running as its own
// process.
//
// A fixed mix of 12-frame jobs (Inputs 1-3 x the four variants, one job in
// four at interactive priority) is sent at two fixed rates, nominal and
// peak, by one generator process with at most nproc client threads.  Job i
// of a phase is due at t0 + i / rate and its latency runs from that due
// time to the job_complete frame.  Every served montage must match the
// one-shot app::summarize hash of the same (input, variant); rejected,
// failed or mismatched jobs count as failed and are not retried.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/resource.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "app/pipeline.h"
#include "bench.h"
#include "core/error.h"
#include "fault/wire.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

using namespace vs;

constexpr int kJobFrames = 12;
constexpr double kNominalRate = 12.0;  ///< jobs/s
constexpr double kPeakRate = 24.0;     ///< jobs/s
constexpr std::size_t kKinds = 12;     ///< 3 inputs x 4 variants

struct job_kind {
  video::input_id input;
  app::algorithm alg;
};

job_kind kind_of(std::size_t k) {
  static constexpr video::input_id inputs[] = {
      video::input_id::input1, video::input_id::input2,
      video::input_id::input3};
  static constexpr app::algorithm algs[] = {
      app::algorithm::vs, app::algorithm::vs_rfd, app::algorithm::vs_kds,
      app::algorithm::vs_sm};
  return {inputs[k / 4], algs[k % 4]};
}

/// The seeded job sequence: every block of 12 jobs is a permutation of the
/// 12 kinds, and one job of every 4 runs at interactive priority.
struct job_mix {
  std::vector<std::size_t> kind;
  std::vector<bool> interactive;

  job_mix(std::uint64_t seed, std::size_t count) {
    std::vector<std::size_t> deck(kKinds);
    std::uint64_t state = mix(seed);
    std::size_t hot = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (i % kKinds == 0) {
        for (std::size_t k = 0; k < kKinds; ++k) deck[k] = k;
        for (std::size_t k = kKinds - 1; k > 0; --k) {
          state = mix(state);
          std::swap(deck[k], deck[state % (k + 1)]);
        }
      }
      if (i % 4 == 0) {
        state = mix(state);
        hot = i + state % 4;
      }
      kind.push_back(deck[i % kKinds]);
      interactive.push_back(i == hot);
    }
  }

  [[nodiscard]] serve::job_request request(std::size_t i) const {
    serve::job_request r;
    const auto k = kind_of(kind[i]);
    r.input = k.input;
    r.alg = k.alg;
    r.frames = kJobFrames;
    r.priority = interactive[i] ? serve::priority_class::interactive
                                : serve::priority_class::batch;
    return r;
  }
};

/// `vs serve` as a child process; stopped (SIGTERM, then SIGKILL) and
/// reaped on destruction.
class server_process {
 public:
  server_process(const context& ctx, const std::string& socket)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string queue = "--queue=64";
    // One runner per core: each job leases a width-1 slice of the pool
    // budget, and a 12-frame job's service time (~60-85 ms, most of it the
    // server synthesizing the clip) leaves the peak rate well short of
    // saturation.
    const std::string runners = "--runners=" + std::to_string(ctx.nproc);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Drain and exit if the benchmark dies without stopping the server.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) std::_Exit(1);
      ::dup2(2, 1);  // keep the server's chatter off the result stream
      ::execl(ctx.vs_binary.c_str(), ctx.vs_binary.c_str(), "serve",
              socket.c_str(), queue.c_str(), runners.c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    serve::client c(socket, 5.0);
    for (int i = 0;; ++i) {
      try {
        (void)c.stats();
        return;
      } catch (const io_error&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("vs serve exited during start-up");
        }
        if (i > 10000) {
          stop();
          throw std::runtime_error("vs serve did not come up");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~server_process() { stop(); }
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  /// Drains the server (SIGTERM; SIGKILL after 10 s), reaps it and removes
  /// its socket.
  void stop() noexcept {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    rusage usage{};
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      reaped = ::wait4(pid_, nullptr, WNOHANG, &usage) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, nullptr, 0, &usage);
    }
    pid_ = -1;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    ::unlink(socket_.c_str());
  }

  /// The reaped server's peak RSS, MB (0 while it runs).
  [[nodiscard]] double peak_rss_mb() const noexcept { return peak_rss_mb_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double peak_rss_mb_ = 0.0;
};

/// One job as the traced client saw it (seconds on the steady clock).
struct job_trace {
  double accepted = 0.0;
  double first_pano = 0.0;
  double wall_ms = 0.0;  ///< job_complete.wall_us
  std::uint64_t hash = 0;
  bool complete = false;
  bool rejected = false;
};

double steady_seconds() {
  return static_cast<double>(now_ns()) / 1e9;
}

/// A minimal protocol client (public framing + protocol codecs) that
/// timestamps the accept and first streamed mini-panorama frames, which
/// serve::client consumes internally.  Used only by the traced phase.
job_trace traced_submit(const std::string& socket,
                        const serve::job_request& request) {
  sockaddr_un addr{};
  if (socket.size() >= sizeof(addr.sun_path)) {
    throw io_error("socket path too long: " + socket);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw io_error("socket() failed");
  struct closer {
    int fd;
    ~closer() { ::close(fd); }
  } guard{fd};
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr))) {
    throw io_error("cannot connect to " + socket);
  }
  const std::string hello = serve::encode_hello({});
  const std::string submit = serve::encode_submit(request);
  for (const std::string* msg : {&hello, &submit}) {
    if (::send(fd, msg->data(), msg->size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(msg->size())) {
      throw io_error("send failed");
    }
  }
  serve::frame_decoder decoder;
  job_trace t;
  char buf[16384];
  for (;;) {
    auto f = decoder.next();
    if (!f) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) throw io_error("server closed mid-stream");
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    switch (static_cast<serve::msg_type>(f->type)) {
      case serve::msg_type::accepted:
        t.accepted = steady_seconds();
        break;
      case serve::msg_type::panorama:
        if (t.first_pano == 0.0) t.first_pano = steady_seconds();
        break;
      case serve::msg_type::complete: {
        const auto m = serve::parse_complete(f->payload);
        if (!m) throw io_error("garbled complete frame");
        t.complete = true;
        t.wall_ms = static_cast<double>(m->wall_us) / 1e3;
        t.hash = fault::wire::hash_image(m->montage) == m->panorama_hash
                     ? m->panorama_hash
                     : 0;
        return t;
      }
      case serve::msg_type::rejected:
        t.rejected = true;
        return t;
      case serve::msg_type::failed:
        return t;
      default:
        break;  // hello echo
    }
  }
}

struct rate_phase {
  std::vector<request_timing> timing;
  std::vector<job_trace> traces;  ///< traced phase only
  std::size_t rejected = 0;
};

}  // namespace

void run_serve_open(const context& ctx, run_result& out) {
  const std::string socket =
      ctx.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const int client_threads = static_cast<int>(ctx.nproc);

  // --- checker references: one-shot summarize hash per job kind ---------
  std::vector<std::uint64_t> reference(kKinds);
  for (std::size_t k = 0; k < kKinds; ++k) {
    app::pipeline_config config;
    config.approx.alg = kind_of(k).alg;
    const auto source = video::make_input(kind_of(k).input, kJobFrames);
    reference[k] =
        fault::wire::hash_image(app::summarize(*source, config).panorama);
  }

  // --- set-up: boot the server and warm it with every job kind ----------
  std::unique_ptr<server_process> server;
  const job_mix warm_mix(ctx.seed, kKinds);
  out.e2e.add("setup_s", median_setup_seconds(kSetupReps, [&](int) {
                server.reset();
                server = std::make_unique<server_process>(ctx, socket);
                std::atomic<std::size_t> next{0};
                std::atomic<int> bad{0};
                std::vector<std::thread> pool;
                for (int t = 0; t < client_threads; ++t) {
                  pool.emplace_back([&] {
                    serve::client c(socket, 60.0);
                    for (std::size_t i; (i = next++) < kKinds;) {
                      try {
                        const auto o = c.submit(warm_mix.request(i));
                        if (o.complete && o.complete->panorama_hash ==
                                              reference[warm_mix.kind[i]]) {
                          continue;
                        }
                      } catch (const io_error&) {
                      }
                      ++bad;
                    }
                  });
                }
                for (auto& t : pool) t.join();
                if (bad > 0) {
                  throw std::runtime_error("warm-up job failed or mismatched");
                }
              }),
              "s");

  // --- open-loop phases -------------------------------------------------------
  std::uint64_t seed_offset = 0;
  std::vector<double> depth;  // queue depth samples of the traced phase
  const auto run_phase = [&](double rate, double seconds, bool traced) {
    const auto count = static_cast<std::size_t>(rate * seconds);
    const job_mix jobs(ctx.seed + (++seed_offset) * 7919, count);
    rate_phase p;
    p.traces.resize(traced ? count : 0);
    std::atomic<std::size_t> rejected{0};
    std::atomic<bool> sampling{traced};
    std::thread sampler;
    if (traced) {
      sampler = std::thread([&] {
        serve::client c(socket, 5.0);
        while (sampling) {
          try {
            depth.push_back(static_cast<double>(c.stats().queue_depth));
          } catch (const io_error&) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }
    steady_time clock;
    p.timing = run_open_loop(
        clock, clock.now() + 0.05, rate, count, client_threads,
        [&](std::size_t i) {
          const auto request = jobs.request(i);
          const auto want = reference[jobs.kind[i]];
          if (traced) {
            auto& t = p.traces[i];
            t = traced_submit(socket, request);
            if (t.rejected) ++rejected;
            return t.complete && t.hash == want;
          }
          serve::client c(socket, 60.0);
          const auto o = c.submit(request);
          if (o.rejected) ++rejected;
          return o.complete && o.complete->panorama_hash == want &&
                 fault::wire::hash_image(o.complete->montage) == want;
        });
    sampling = false;
    if (sampler.joinable()) sampler.join();
    p.rejected = rejected;
    return p;
  };

  // Adds the peak phase's metrics to `m` (null for the nominal phase).
  const auto summarize_phase = [&](const rate_phase& p, const char* label,
                                   const char* rate, metric_set* m,
                                   bool require_tail) {
    std::vector<double> lat;
    double t0 = 1e300, last_done = 0, goodput = 0;
    std::size_t ok = 0;
    for (const auto& r : p.timing) {
      lat.push_back(r.ok ? r.latency() * 1e3 : 1e9);  // failures miss the limit
      t0 = std::min(t0, r.due);
      last_done = std::max(last_done, r.done);
      if (r.ok) ++ok;
      if (r.ok && r.latency() * 1e3 <= ctx.serve_limit_ms) goodput += 1;
    }
    goodput /= last_done - t0;
    if (m != nullptr) m->add("work_per_s", goodput, "1/s");
    out.report.push_back(
        strf("%s: ", label) +
        add_latency(m, lat, strf("serve_p{}_ms.%s", rate), 0.95,
                    require_tail) +
        strf(" serve_goodput_jobs_s.%s=%.3f (limit %.0f ms) ok=%zu/%zu "
             "rejected=%zu",
             rate, goodput, ctx.serve_limit_ms, ok, p.timing.size(),
             p.rejected));
    out.attempted += p.timing.size();
    out.failed += p.timing.size() - ok;
    return ok == p.timing.size();
  };

  // Nominal then peak; peak gets the larger share so its p95 rests on
  // enough samples.
  const double nominal_s = ctx.phase_seconds() * 0.25;
  const double peak_s = ctx.phase_seconds() * 0.75;
  if (!summarize_phase(run_phase(kNominalRate, nominal_s, false),
                       "untraced", "nominal", nullptr, false)) {
    out.fail_check("failed jobs at the nominal rate");
  }
  (void)summarize_phase(run_phase(kPeakRate, peak_s, false), "untraced",
                        "peak", &out.e2e, !ctx.trace);
  if (!ctx.trace) {
    server->stop();
    out.peak_rss_mb = self_peak_rss_mb() + server->peak_rss_mb();
    return;
  }

  // --- traced phase -------------------------------------------------------------
  const auto nominal = run_phase(kNominalRate, nominal_s, true);
  if (!summarize_phase(nominal, "traced", "nominal", nullptr, false)) {
    out.fail_check("failed jobs at the nominal rate");
  }
  const auto peak = run_phase(kPeakRate, peak_s, true);
  out.e2e_traced.add("setup_s", out.e2e.value("setup_s"), "s");
  (void)summarize_phase(peak, "traced", "peak", &out.e2e_traced, false);

  std::vector<double> accept, first, wait, run, late;
  std::size_t jobs = 0, rejected = 0;
  std::uint64_t group = 0;
  for (const auto* p : {&nominal, &peak}) {
    for (std::size_t i = 0; i < p->timing.size(); ++i) {
      const auto& r = p->timing[i];
      const auto& t = p->traces[i];
      ++group;
      ++jobs;
      late.push_back(r.lateness() * 1e3);
      if (t.rejected) ++rejected;
      if (!t.complete) continue;
      const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
      const int root = out.spans.record("serve.job", group, ns(r.due), ns(r.done));
      out.spans.record("serve.gen_late", group, ns(r.due), ns(r.sent), root);
      out.spans.record("serve.accept", group, ns(r.sent), ns(t.accepted), root);
      if (t.first_pano > 0) {
        out.spans.record("serve.first_pano", group, ns(t.accepted),
                         ns(t.first_pano), root);
      }
      accept.push_back((t.accepted - r.sent) * 1e3);
      if (t.first_pano > 0) first.push_back((t.first_pano - r.sent) * 1e3);
      run.push_back(t.wall_ms);
      wait.push_back((r.done - r.sent) * 1e3 - t.wall_ms);
    }
  }
  auto& L = out.layers;
  L.add("serve.accept_ms", mean(accept), "ms");
  L.add("serve.first_pano_ms", mean(first), "ms");
  L.add("serve.queue_wait_ms", mean(wait), "ms");
  L.add("serve.run_ms", mean(run), "ms");
  L.add("serve.queue_depth", mean(depth), "count");
  L.add("serve.rejected_frac",
        jobs ? static_cast<double>(rejected) / static_cast<double>(jobs) : 0.0,
        "ratio");
  L.add("serve.gen_late_ms", mean(late), "ms");
  L.add("core.pool_peak_in_use",
        static_cast<double>(serve::client(socket, 5.0).stats().pool_peak_in_use),
        "count");
  server->stop();
  out.peak_rss_mb = self_peak_rss_mb() + server->peak_rss_mb();

  // The server builds and renders its own clips: time the same work here.
  std::vector<double> render_us, make_ms;
  for (std::size_t k = 0; k < kKinds; k += 4) {
    std::shared_ptr<const video::synthetic_video> source;
    {
      const scoped_span s(&out.spans, "video.make_input", 0);
      const auto t0 = now_ns();
      source = video::make_input(kind_of(k).input, kJobFrames);
      make_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    for (int i = 0; i < kJobFrames; ++i) {
      const scoped_span s(&out.spans, "video.render", 0);
      const auto t0 = now_ns();
      (void)source->frame(i);
      render_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  L.add("video.render_us", mean(render_us), "us");
  L.add("video.make_input_ms", mean(make_ms), "ms");
}

}  // namespace perfbench
