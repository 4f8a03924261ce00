// adhoc_cold: prepare-bound traffic. 256 seeded difftest cases (thirds
// plain / correlated / recursive, at most 4 documents each), each behind its
// own shredded view, cycled round-robin by one closed-loop client with
// threads = 1. The working set is 4x the 64-entry plan cache, so every
// request is a cold prepare over tiny documents. Every output must
// canonically equal the functional path's output, computed at set-up.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "difftest/generator.h"
#include "layers.h"

namespace e2ebench {
namespace {

constexpr int kCases = 256;
constexpr int kSetupReps = 21;
const char* const kModes[3] = {"plain", "correlated", "recursive"};

std::string ViewName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "c%03d", i);
  return buf;
}

// Registers and loads every case into a fresh database; false on any
// library error.
bool BuildState(const std::vector<xdb::difftest::GeneratedCase>& cases,
                std::unique_ptr<xdb::XmlDb>* db) {
  *db = std::make_unique<xdb::XmlDb>();
  for (int i = 0; i < kCases; ++i) {
    const auto& c = cases[static_cast<size_t>(i)];
    xdb::Status s = (*db)->RegisterShreddedSchema(ViewName(i), c.structure);
    if (!s.ok()) {
      std::fprintf(stderr, "adhoc_cold: register case %d: %s\n", i,
                   s.ToString().c_str());
      return false;
    }
    for (const std::string& doc : c.documents) {
      auto load = (*db)->LoadDocument(ViewName(i), doc);
      if (!load.ok()) {
        std::fprintf(stderr, "adhoc_cold: load case %d: %s\n", i,
                     load.status().ToString().c_str());
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool RunAdhocCold(const Args& args, Report* report) {
  // Inputs: benchmark-side generation, excluded from set-up time.
  std::vector<xdb::difftest::GeneratedCase> cases;
  Rng seeds(args.seed);
  for (int i = 0; i < kCases; ++i) {
    xdb::difftest::GenOptions gen;
    gen.max_documents = 4;
    gen.correlated = i % 3 == 1;
    gen.recursive = i % 3 == 2;
    cases.push_back(xdb::difftest::GenerateCase(seeds.Next(), gen));
  }

  std::unique_ptr<xdb::XmlDb> db;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    int64_t t0 = NowNs();
    if (!BuildState(cases, &db)) return false;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  xdb::ExecOptions options;
  options.threads = 1;
  options.parallel = false;
  xdb::ExecOptions functional = options;
  functional.enable_rewrite = false;
  functional.use_plan_cache = false;
  std::vector<CanonicalCheck> checks(kCases);
  for (int i = 0; i < kCases; ++i) {
    auto rows = db->TransformView(ViewName(i), cases[static_cast<size_t>(i)].stylesheet,
                                  functional);
    if (!rows.ok()) {
      std::fprintf(stderr, "adhoc_cold: reference case %d: %s\n", i,
                   rows.status().ToString().c_str());
      return false;
    }
    checks[static_cast<size_t>(i)].SetReference(rows.MoveValue());
  }
  if (args.corrupt_reference) checks[0].Corrupt();

  std::vector<std::vector<double>> plain_ms(kCases);
  std::vector<double> plain_all, traced_all;
  std::vector<char> plan(kCases, '?');
  std::vector<bool> failure_noted(kCases, false);
  double plain_busy_s = 0;
  SpanLog log;
  LayerTally tally;
  uint64_t request = 0;
  CpuRotation rotation(0);
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  for (int round = 0; NowNs() < deadline; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    SpanLog* lg = traced ? &log : nullptr;
    for (int i = 0; i < kCases && NowNs() < deadline; ++i) {
      rotation.Tick();
      const auto& c = cases[static_cast<size_t>(i)];
      const std::string view = ViewName(i);
      ++request;
      ++report->attempted;
      xdb::ExecStats stats;
      std::shared_ptr<const xdb::core::PreparedTransform> prepared;
      int64_t t0 = NowNs();
      auto rows = SpannedTransform(db.get(), view, c.stylesheet, options, lg,
                                   request, &stats, &prepared);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!rows.ok() || !checks[static_cast<size_t>(i)].Matches(*rows)) {
        ++report->failed;
        if (!failure_noted[static_cast<size_t>(i)]) {
          failure_noted[static_cast<size_t>(i)] = true;
          std::fprintf(stderr, "adhoc_cold: %s: %s\n", view.c_str(),
                       rows.ok() ? "output differs from the functional path"
                                 : rows.status().ToString().c_str());
        }
        continue;
      }
      plan[static_cast<size_t>(i)] = PlanLetter(stats.path);
      if (traced) {
        traced_all.push_back(ms);
        tally.AddXform(stats);
        ProbePrepare(db.get(), view, c.stylesheet, lg, request, &tally);
      } else {
        plain_ms[static_cast<size_t>(i)].push_back(ms);
        plain_all.push_back(ms);
        plain_busy_s += ms / 1e3;
      }
    }
  }

  auto& m = report->metrics;
  std::vector<double> medians;
  std::vector<double> mode_ms[3];
  int mode_plans[3][3] = {};
  for (int i = 0; i < kCases; ++i) {
    const auto& samples = plain_ms[static_cast<size_t>(i)];
    if (!samples.empty()) medians.push_back(Median(samples));
    mode_ms[i % 3].insert(mode_ms[i % 3].end(), samples.begin(), samples.end());
    char p = plan[static_cast<size_t>(i)];
    if (p != '?') ++mode_plans[i % 3][p - 'A'];
  }
  m["xform_p50_ms"] = Quantile(plain_all, 0.5);
  m["xform_p99_ms"] = Quantile(plain_all, 0.99);
  m["xform_samples"] = static_cast<double>(plain_all.size());
  m["xform_per_s"] = plain_busy_s > 0 ? plain_all.size() / plain_busy_s : 0;
  m["case_geomean_ms"] = Geomean(medians);
  m["setup_s"] = Median(setup_s);
  if (args.trace) {
    m["trace.overhead_p50_ms"] =
        Quantile(traced_all, 0.5) - Quantile(plain_all, 0.5);
    EmitLayerMetrics(tally, SummarizeSpans({&log}), report);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, {&log});
  }

  for (int mode = 0; mode < 3; ++mode) {
    char row[512];
    std::snprintf(row, sizeof(row),
                  "{\"workload\": \"adhoc_cold\", \"mode\": \"%s\", \"n\": %zu, "
                  "\"p50_ms\": %s, \"p99_ms\": %s, \"cases_A\": %d, "
                  "\"cases_B\": %d, \"cases_C\": %d}",
                  kModes[mode], mode_ms[mode].size(),
                  JsonNumber(Quantile(mode_ms[mode], 0.5)).c_str(),
                  JsonNumber(Quantile(mode_ms[mode], 0.99)).c_str(),
                  mode_plans[mode][0], mode_plans[mode][1], mode_plans[mode][2]);
    report->rows.push_back(row);
  }
  return true;
}

}  // namespace e2ebench
