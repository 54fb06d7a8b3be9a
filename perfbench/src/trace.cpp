#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

void wait_until(std::int64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

namespace {

/// The CPUs this process may run on, read once: before any thread pins
/// itself, a thread's own affinity is still the process's.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

unsigned cpu_count() { return static_cast<unsigned>(allowed_cpus().size()); }

bool pin_to_cpu(unsigned index) {
  const std::vector<int>& cpus = allowed_cpus();
  if (index >= cpus.size()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index], &one);
  return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
}

// ---- Tracer -----------------------------------------------------------------

struct Tracer::Buffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // indices of the spans still open
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    // Buffers live until process exit so spans survive their threads.
    static std::vector<std::unique_ptr<Buffer>> owned;
    std::lock_guard lock(mu_);
    owned.push_back(std::make_unique<Buffer>());
    buffer = owned.back().get();
    buffer->thread = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 16);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

std::int32_t Tracer::open(const char* name, std::uint64_t query) {
  if (!enabled_) return -1;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.query = query;
  s.parent = b.open.empty() ? -1 : b.open.back();
  const auto index = static_cast<std::int32_t>(b.spans.size());
  b.open.push_back(index);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index)].end_ns = end;
  b.open.pop_back();
}

std::vector<Tracer::ThreadSpans> Tracer::collect() const {
  std::lock_guard lock(mu_);
  std::vector<ThreadSpans> out;
  for (const Buffer* b : buffers_) out.push_back(ThreadSpans{b->thread, b->spans});
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::totals(std::int64_t from_ns,
                                                      std::int64_t to_ns) const {
  std::map<std::string, Totals> out;
  for (const ThreadSpans& t : collect()) {
    std::vector<std::int64_t> child_ns(t.spans.size(), 0);
    for (const Span& s : t.spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
      Totals& tot = out[s.name];
      ++tot.count;
      tot.total_ms += ns_to_ms(s.end_ns - s.start_ns);
      tot.self_ms += ns_to_ms(s.end_ns - s.start_ns - child_ns[i]);
      if (s.parent < 0) tot.root_ms += ns_to_ms(s.end_ns - s.start_ns);
    }
  }
  return out;
}

std::vector<double> Tracer::durations_us(const std::string& name, std::int64_t from_ns,
                                         std::int64_t to_ns) const {
  std::vector<double> out;
  for (const ThreadSpans& t : collect()) {
    for (const Span& s : t.spans) {
      if (name == s.name && s.start_ns >= from_ns && s.start_ns < to_ns) {
        out.push_back(ns_to_us(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const ThreadSpans& t : collect()) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      std::fprintf(f,
                   "{\"thread\": %d, \"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"query\": %llu}\n",
                   t.thread, i, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.query));
    }
  }
  return std::fclose(f) == 0;
}

// ---- statistics ---------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Tail tail_of(const std::vector<double>& values) {
  static const double kLadder[] = {50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99};
  Tail t;
  t.samples = values.size();
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) t.percentile = p;
  }
  if (t.percentile > 0.0) t.value = quantile(values, t.percentile / 100.0);
  return t;
}

// ---- Record -------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class Map, class Fn>
std::string json_object(const Map& map, Fn&& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : map) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + value(v);
  }
  return out + "}";
}

}  // namespace

bool Record::write(const std::string& path) const {
  const auto metric = [](const Metric& m) {
    return "{\"value\": " + json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  };
  std::string out = "{\n";
  out += "  \"workload\": " + json_string(workload) + ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"trace\": " + std::string(trace ? "true" : "false") + ",\n";
  out += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(failed) + ",\n";
  out += "  \"failure_reasons\": " +
         json_object(failure_reasons, [](std::uint64_t v) { return std::to_string(v); }) + ",\n";
  out += "  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += (i ? ", " : "") + std::string("{\"check\": ") + json_string(checks[i].first) +
           ", \"ok\": " + (checks[i].second ? "true" : "false") + "}";
  }
  out += "],\n";
  out += "  \"end_to_end\": " + json_object(end_to_end, metric) + ",\n";
  out += "  \"per_layer\": " + json_object(per_layer, metric) + ",\n";
  out += "  \"pins\": " + json_object(pins, json_number) + ",\n";
  out += "  \"counts\": " + json_object(counts, json_number) + ",\n";
  out += "  \"meta\": " + json_object(meta, json_string) + "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(out.c_str(), f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
