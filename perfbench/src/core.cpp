#include "core.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail(std::vector<double> v, double q) {
  if (samples_beyond(v.size(), q) < kMinBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), q) - 1];
}

std::optional<double> highest_supported_quantile(std::size_t n) {
  std::optional<double> best;
  for (double q : {0.75, 0.90, 0.95, 0.99, 0.999}) {
    if (samples_beyond(n, q) >= kMinBeyond) best = q;
  }
  return best;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --- spans -----------------------------------------------------------------

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_stack;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

std::string span::layer() const {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

int tracer::open(std::string name, std::uint64_t group) {
  span s;
  s.name = std::move(name);
  s.group = group;
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  s.tid = thread_index();
  s.start_ns = now_ns();
  int id;
  {
    const std::lock_guard<std::mutex> lock(m_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  open_stack.push_back(id);
  return id;
}

void tracer::close(int id) {
  const std::int64_t end = now_ns();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

int tracer::record(std::string name, std::uint64_t group,
                   std::int64_t start_ns, std::int64_t end_ns, int parent) {
  span s;
  s.name = std::move(name);
  s.group = group;
  s.parent = parent;
  s.tid = thread_index();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<span> tracer::spans() const {
  const std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

std::size_t tracer::size() const {
  const std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

std::vector<span> tracer::spans_from(std::size_t first) const {
  const std::lock_guard<std::mutex> lock(m_);
  std::vector<span> out;
  const auto base = static_cast<int>(first);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    span s = spans_[i];
    s.parent = s.parent >= base ? s.parent - base : -1;
    out.push_back(std::move(s));
  }
  return out;
}

void tracer::write_chrome_trace(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const auto& s : all) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.layer()) << "," << buf
        << ",\"args\":{\"group\":" << s.group << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    bool have_run = false;
    for (const auto& [lo, hi] : iv) {
      if (have_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (have_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      have_run = true;
    }
    if (have_run) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, name_stats> self_time_by_name(
    const std::vector<span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, name_stats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& st = out[spans[i].name];
    ++st.count;
    st.total_self_us += static_cast<double>(self[i]) / 1e3;
  }
  for (auto& [name, st] : out) {
    st.mean_self_us = st.total_self_us / static_cast<double>(st.count);
  }
  return out;
}

// --- open loop -------------------------------------------------------------

double steady_time::now() {
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void steady_time::sleep_until(double t) {
  const auto target = clock::time_point(
      std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(t)));
  std::this_thread::sleep_until(target);
}

std::vector<request_timing> run_open_loop(
    time_source& clock, double t0, double rate, std::size_t count,
    int threads, const std::function<bool(std::size_t)>& send) {
  if (rate <= 0.0) throw std::invalid_argument("open loop: rate must be > 0");
  std::vector<request_timing> out(count);
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      auto& r = out[i];
      r.due = t0 + static_cast<double>(i) / rate;
      if (clock.now() < r.due) clock.sleep_until(r.due);
      r.sent = clock.now();
      try {
        r.ok = send(i);
      } catch (...) {
        r.ok = false;  // a request that throws failed; it is not retried
      }
      r.done = clock.now();
    }
  };
  const int n = std::max(1, threads);
  if (n == 1) {
    client();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) pool.emplace_back(client);
  for (auto& t : pool) t.join();
  return out;
}

// --- results ---------------------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void metric_set::add(const std::string& name, double value,
                     const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (values_.count(name)) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  order_.push_back(name);
  values_[name] = {value, unit};
}

bool metric_set::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double metric_set::value(const std::string& name) const {
  return values_.at(name).first;
}

const std::string& metric_set::unit(const std::string& name) const {
  return values_.at(name).second;
}

std::string metric_set::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i) out += ", ";
    out += json_string(order_[i]) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(unit) + "}";
  }
  return out + "}";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite JSON number");
  // Shortest of 15..17 significant digits that reads back exactly.
  char buf[40];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
