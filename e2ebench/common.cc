#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace e2ebench {

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double dur = static_cast<double>(s.end_ns - s.start_ns);
      double self = dur - child_ns[i];
      std::string keys[2] = {s.name, ""};
      if (s.tag != 0) keys[1] = std::string(s.name) + "#" + s.tag;
      for (const std::string& key : keys) {
        if (key.empty()) continue;
        SpanTotals& t = out[key];
        ++t.count;
        t.total_ns += dur;
        t.self_ns += self;
      }
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,request,name,tag,start_ns,end_ns,parent,self_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%llu,%s,%c,%lld,%lld,%d,%lld\n", t,
                   static_cast<unsigned long long>(s.request), s.name,
                   s.tag == 0 ? '-' : s.tag, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.end_ns - s.start_ns - child_ns[i]));
    }
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Geomean(const std::vector<double>& values) {
  double log_sum = 0;
  size_t n = 0;
  for (double v : values) {
    if (v <= 0) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {

void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation(int offset) : offset_(offset), start_ns_(NowNs()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (slot_ >= 0) PinThread(cpus_);
}

void CpuRotation::Tick() {
  if (cpus_.size() < 2) return;
  const int64_t slot = (NowNs() - start_ns_) / 100000000;
  if (slot == slot_) return;
  slot_ = slot;
  PinThread({cpus_[static_cast<size_t>(slot + offset_) % cpus_.size()]});
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace e2ebench
