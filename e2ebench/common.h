// Shared pieces of the end-to-end benchmark: arguments, the result report,
// the in-memory span tracer and the summary statistics every workload uses.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Full record (contract metrics, extra metrics, per-row breakdown).
  std::string record_path;
  /// Span dump of a traced run (CSV, one span per line).
  std::string spans_path;
  /// Scratch directory for the durable database of serve_ingest.
  std::string work_dir = ".bench_out/work";
  /// Self-test: corrupt one reference output so every check against it
  /// fails and failed_frac turns non-zero.
  bool corrupt_reference = false;
};

/// Everything one run produces. `metrics` holds every value measured, keyed
/// by metric name; main.cc's metric table decides which are printed (the
/// end-to-end ones by an untraced run, the per-layer ones by a traced run)
/// and gives their units. `rows` is the per-case breakdown.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> rows;  ///< one JSON object per breakdown row
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ---- tracing -----------------------------------------------------------------

/// One timed call. `parent` indexes the same SpanLog (-1 = request root);
/// spans of one request share `request`. `tag` carries the plan letter of an
/// execute span (A/B/C) or 0.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
  char tag = 0;
};

/// Per-thread span buffer: no locking, merged after the threads joined.
class SpanLog {
 public:
  int Begin(const char* name, uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }
  void SetTag(int index, char tag) { spans_[static_cast<size_t>(index)].tag = tag; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log (untraced request) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request) : log_(log) {
    if (log_ != nullptr) index_ = log_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Tag(char tag) {
    if (log_ != nullptr) log_->SetTag(index_, tag);
  }

 private:
  SpanLog* log_;
  int index_ = -1;
};

/// Per span name (and tag): call count, total and self time. Self time is
/// the span minus the time its child spans cover.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double MeanSelfNs() const { return count == 0 ? 0 : self_ns / count; }
};

/// Key "name" for all spans of a name, "name#T" for those tagged T.
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as CSV (thread,request,name,tag,start_ns,end_ns,
/// parent,self_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values (0 for none).
double Geomean(const std::vector<double>& values);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// CPUs this process may run on (nproc).
int CpuCount();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per 100 ms slot, starting `offset` CPUs along; threads with distinct
/// offsets never share a CPU. Client threads use it so that every run
/// averages over all CPUs: on shared virtual CPUs the speed of one CPU
/// follows what the host runs beside it, and a thread the scheduler leaves
/// on a slow CPU would slow a whole run. The destructor restores the
/// thread's CPU set.
class CpuRotation {
 public:
  explicit CpuRotation(int offset);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Re-pins the thread when a new slot has begun; cheap otherwise.
  void Tick();

 private:
  std::vector<int> cpus_;
  int offset_;
  int64_t start_ns_;
  int64_t slot_ = -1;
};

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// JSON string literal.
std::string JsonString(const std::string& s);
/// Shortest round-trip decimal form of `v` (no exponent loss of digits).
std::string JsonNumber(double v);

// ---- workloads ---------------------------------------------------------------

/// Each returns false (with a message on stderr) when set-up fails; output
/// mismatches are counted in the report instead.
bool RunPaperMix(const Args& args, Report* report);
bool RunServeIngest(const Args& args, Report* report);
bool RunAdhocCold(const Args& args, Report* report);

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
