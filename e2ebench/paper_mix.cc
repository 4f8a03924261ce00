// paper_mix: the paper's workload (§5, Fig. 2/3). All 40 xsltmark cases
// over their dataset families at the Fig. 3 scale, warm plan cache, one
// closed-loop client, intra-query threads = nproc, case order shuffled per
// round from the seed. Every output must canonically equal the functional
// path's (enable_rewrite = false) output, computed once at set-up.
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "common.h"
#include "layers.h"
#include "xsltmark/suite.h"

namespace e2ebench {
namespace {

constexpr int kRows = 8000;
// Set-ups timed before the measured loop, and again after it: the host's
// speed drifts over a run, and set-ups at both ends let the median see it.
constexpr int kSetupReps = 3;

// The plan each case took at the seed commit. Fixed by name, so a change
// that moves a case to another plan still compares like with like; every
// case not listed here took plan C.
const std::set<std::string>& SeedPlanA() {
  static const std::set<std::string> names = {
      "dbonerow", "dbtail",   "dbaccess", "dbgroup", "avts",   "attsets",
      "creation", "inventory", "chart",   "total",   "metric", "summarize",
      "valueof",  "select",   "union",    "sort",    "stringsort",
      "alphabetize", "current", "vendor", "dbquery"};
  return names;
}
const std::set<std::string>& SeedPlanB() {
  static const std::set<std::string> names = {
      "patterns",  "priority",  "identity", "bottles", "queens",
      "functions", "reverser",  "wordcount", "encrypt", "brutal"};
  return names;
}

char SeedPlan(const std::string& name) {
  if (SeedPlanA().count(name) != 0) return 'A';
  if (SeedPlanB().count(name) != 0) return 'B';
  return 'C';
}

using DbMap = std::map<std::string, std::unique_ptr<xdb::XmlDb>>;

// Builds every family's database and warms each case's plan; false on any
// library error.
bool BuildState(const std::vector<xdb::xsltmark::BenchCase>& cases,
                const xdb::ExecOptions& options, DbMap* dbs) {
  dbs->clear();
  for (const auto& c : cases) {
    if (dbs->count(c.family) != 0) continue;
    auto db = std::make_unique<xdb::XmlDb>();
    xdb::Status s = xdb::xsltmark::SetupFamily(db.get(), c.family, kRows);
    if (!s.ok()) {
      std::fprintf(stderr, "paper_mix: setup %s: %s\n", c.family.c_str(),
                   s.ToString().c_str());
      return false;
    }
    (*dbs)[c.family] = std::move(db);
  }
  for (const auto& c : cases) {
    auto rows = (*dbs)[c.family]->TransformView(
        xdb::xsltmark::FamilyViewName(c.family), c.stylesheet, options);
    if (!rows.ok()) {
      std::fprintf(stderr, "paper_mix: warm-up %s: %s\n", c.name.c_str(),
                   rows.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

bool RunPaperMix(const Args& args, Report* report) {
  const std::vector<xdb::xsltmark::BenchCase>& cases = xdb::xsltmark::AllCases();
  const size_t n = cases.size();
  xdb::ExecOptions options;
  options.threads = CpuCount();

  DbMap dbs;
  std::vector<double> setup_s;
  auto timed_setups = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      int64_t t0 = NowNs();
      if (!BuildState(cases, options, &dbs)) return false;
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return true;
  };
  if (!timed_setups()) return false;

  // Reference outputs: the functional path, excluded from set-up time.
  std::vector<CanonicalCheck> checks(n);
  xdb::ExecOptions functional = options;
  functional.enable_rewrite = false;
  for (size_t i = 0; i < n; ++i) {
    const auto& c = cases[i];
    auto rows = dbs[c.family]->TransformView(
        xdb::xsltmark::FamilyViewName(c.family), c.stylesheet, functional);
    if (!rows.ok()) {
      std::fprintf(stderr, "paper_mix: reference %s: %s\n", c.name.c_str(),
                   rows.status().ToString().c_str());
      return false;
    }
    checks[i].SetReference(rows.MoveValue());
  }
  if (args.corrupt_reference) checks[0].Corrupt();

  // Samples per case, split by whether the request was traced.
  std::vector<std::vector<double>> plain_ms(n), traced_ms(n);
  std::vector<char> plan(n, '?');
  std::vector<bool> failure_noted(n, false);
  std::vector<double> plain_all, traced_all;
  double plain_busy_s = 0;
  SpanLog log;
  LayerTally tally;
  Rng rng(args.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  uint64_t request = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  for (int round = 0; NowNs() < deadline; ++round) {
    // A traced run alternates untraced and traced rounds; the difference
    // between them is the tracing overhead.
    const bool traced = args.trace && round % 2 == 1;
    SpanLog* lg = traced ? &log : nullptr;
    Shuffle(&order, &rng);
    for (size_t i : order) {
      if (NowNs() >= deadline) break;
      const auto& c = cases[i];
      xdb::XmlDb* db = dbs[c.family].get();
      const std::string view = xdb::xsltmark::FamilyViewName(c.family);
      ++request;
      ++report->attempted;
      xdb::ExecStats stats;
      std::shared_ptr<const xdb::core::PreparedTransform> prepared;
      int64_t t0 = NowNs();
      auto rows = SpannedTransform(db, view, c.stylesheet, options, lg, request,
                                   &stats, &prepared);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!rows.ok() || !checks[i].Matches(*rows)) {
        ++report->failed;
        if (!failure_noted[i]) {
          failure_noted[i] = true;
          std::fprintf(stderr, "paper_mix: %s: %s\n", c.name.c_str(),
                       rows.ok() ? "output differs from the functional path"
                                 : rows.status().ToString().c_str());
        }
        continue;
      }
      plan[i] = PlanLetter(stats.path);
      if (traced) {
        traced_ms[i].push_back(ms);
        traced_all.push_back(ms);
        tally.AddXform(stats);
        ProbePrepare(db, view, c.stylesheet, lg, request, &tally);
        if (plan[i] != 'A') {
          ProbeFunctional(db, *prepared, plan[i] == 'B', lg, request, &tally);
        }
      } else {
        plain_ms[i].push_back(ms);
        plain_all.push_back(ms);
        plain_busy_s += ms / 1e3;
      }
    }
  }

  if (!timed_setups()) return false;

  // ---- metrics ----------------------------------------------------------------
  auto& m = report->metrics;
  std::vector<double> medians, traced_medians, by_plan[3];
  for (size_t i = 0; i < n; ++i) {
    double med = Median(plain_ms[i]);
    medians.push_back(med);
    if (!traced_ms[i].empty()) traced_medians.push_back(Median(traced_ms[i]));
    by_plan[SeedPlan(cases[i].name) - 'A'].push_back(med);
    if (plan[i] != '?' && plan[i] != SeedPlan(cases[i].name)) ++tally.path_changes;
  }
  m["xform_p50_ms"] = Quantile(plain_all, 0.5);
  m["xform_p99_ms"] = Quantile(plain_all, 0.99);
  m["xform_samples"] = static_cast<double>(plain_all.size());
  m["xform_per_s"] = plain_busy_s > 0 ? plain_all.size() / plain_busy_s : 0;
  m["case_geomean_ms"] = Geomean(medians);
  m["planA_geomean_ms"] = Geomean(by_plan[0]);
  m["planB_geomean_ms"] = Geomean(by_plan[1]);
  m["planC_geomean_ms"] = Geomean(by_plan[2]);
  m["setup_s"] = Median(setup_s);
  if (args.trace) {
    m["trace.overhead_p50_ms"] =
        Quantile(traced_all, 0.5) - Quantile(plain_all, 0.5);
    m["trace.overhead_geomean_ms"] = Geomean(traced_medians) - Geomean(medians);
    EmitLayerMetrics(tally, SummarizeSpans({&log}), report);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, {&log});
  }

  for (size_t i = 0; i < n; ++i) {
    const auto& c = cases[i];
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"workload\": \"paper_mix\", \"case\": %s, \"family\": %s, "
                  "\"plan\": \"%c\", \"seed_plan\": \"%c\", \"n\": %zu, "
                  "\"p50_ms\": %s, \"min_ms\": %s}",
                  JsonString(c.name).c_str(), JsonString(c.family).c_str(),
                  plan[i], SeedPlan(c.name), plain_ms[i].size(),
                  JsonNumber(medians[i]).c_str(),
                  JsonNumber(Quantile(plain_ms[i], 0)).c_str());
    report->rows.push_back(row);
  }
  return true;
}

}  // namespace e2ebench
