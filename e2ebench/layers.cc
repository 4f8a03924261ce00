#include "layers.h"

#include <algorithm>
#include <memory>

#include "difftest/canonical.h"
#include "rel/optimizer.h"
#include "rewrite/xquery_rewriter.h"
#include "rewrite/xslt_rewriter.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xslt/stylesheet.h"
#include "xslt/vm.h"

namespace e2ebench {

int PlanIndex(xdb::ExecutionPath path) {
  switch (path) {
    case xdb::ExecutionPath::kSqlRewritten:
      return 0;
    case xdb::ExecutionPath::kXQueryRewritten:
      return 1;
    case xdb::ExecutionPath::kFunctional:
      break;
  }
  return 2;
}

char PlanLetter(xdb::ExecutionPath path) {
  return static_cast<char>('A' + PlanIndex(path));
}

void LayerTally::AddXform(const xdb::ExecStats& stats) {
  ++xforms;
  if (stats.cache_hit) ++cache_hits;
  const int plan = PlanIndex(stats.path);
  ++path_count[plan];
  if (stats.path == xdb::ExecutionPath::kSqlRewritten && stats.used_index) {
    ++used_index;
  }
  par_tasks += static_cast<double>(stats.parallel_tasks);
  threads_used += stats.threads_used;
  join_build_rows += static_cast<double>(stats.join_build_rows);
  join_probe_rows += static_cast<double>(stats.join_probe_rows);
  join_match_rows += static_cast<double>(stats.join_match_rows);
  structural_match_rows += static_cast<double>(stats.structural_match_rows);
  structural_est_rows += static_cast<double>(stats.structural_est_rows);
  stats_prepare_ns += static_cast<double>(stats.prepare_ns);
  stats_execute_ns[plan] += static_cast<double>(stats.execute_ns);
}

void LayerTally::AddLoad(const xdb::shred::LoadStats& stats) {
  ++loads;
  shred_parse_ns += static_cast<double>(stats.parse_ns);
  shred_ns += static_cast<double>(stats.shred_ns);
  insert_ns += static_cast<double>(stats.insert_ns);
  commit_us += static_cast<double>(stats.commit_latency_us);
  fsyncs += static_cast<double>(stats.wal_fsyncs);
  wal_bytes += static_cast<double>(stats.wal_bytes);
  source_bytes += static_cast<double>(stats.bytes);
}

void LayerTally::Merge(const LayerTally& o) {
  xforms += o.xforms;
  cache_hits += o.cache_hits;
  for (int i = 0; i < 3; ++i) {
    path_count[i] += o.path_count[i];
    stats_execute_ns[i] += o.stats_execute_ns[i];
  }
  used_index += o.used_index;
  par_tasks += o.par_tasks;
  threads_used += o.threads_used;
  join_build_rows += o.join_build_rows;
  join_probe_rows += o.join_probe_rows;
  join_match_rows += o.join_match_rows;
  structural_match_rows += o.structural_match_rows;
  structural_est_rows += o.structural_est_rows;
  stats_prepare_ns += o.stats_prepare_ns;
  admission_wait_ns += o.admission_wait_ns;
  session_xforms += o.session_xforms;
  path_changes += o.path_changes;
  rewrite_attempts += o.rewrite_attempts;
  rewrite_rejects += o.rewrite_rejects;
  parsed_bytes += o.parsed_bytes;
  parse_ns += o.parse_ns;
  loads += o.loads;
  shred_parse_ns += o.shred_parse_ns;
  shred_ns += o.shred_ns;
  insert_ns += o.insert_ns;
  commit_us += o.commit_us;
  fsyncs += o.fsyncs;
  wal_bytes += o.wal_bytes;
  source_bytes += o.source_bytes;
  checkpoints += o.checkpoints;
  recovery_replayed_records += o.recovery_replayed_records;
  live_epochs_max = std::max(live_epochs_max, o.live_epochs_max);
  epochs_published += o.epochs_published;
  writer_lag_ms.insert(writer_lag_ms.end(), o.writer_lag_ms.begin(),
                       o.writer_lag_ms.end());
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Mean duration per call of the spans keyed `key`, in ns (0 when absent).
double MeanSpanNs(const std::map<std::string, SpanTotals>& spans,
                  const std::string& key) {
  auto it = spans.find(key);
  return it == spans.end() ? 0 : it->second.MeanSelfNs();
}

// Total self time of `key` spent per `per` span (e.g. VM time per probe).
double SpanNsPer(const std::map<std::string, SpanTotals>& spans,
                 const std::string& key, const std::string& per) {
  auto it = spans.find(key);
  auto jt = spans.find(per);
  if (it == spans.end() || jt == spans.end()) return 0;
  return Ratio(it->second.self_ns, static_cast<double>(jt->second.count));
}

}  // namespace

void EmitLayerMetrics(const LayerTally& t,
                      const std::map<std::string, SpanTotals>& spans,
                      Report* report) {
  auto& m = report->metrics;
  const double xforms = static_cast<double>(t.xforms);
  const bool spanned_execute = spans.count("core.execute") != 0;

  // core
  m["core.prepare_us"] = spans.count("core.prepare") != 0
                             ? MeanSpanNs(spans, "core.prepare") / 1e3
                             : Ratio(t.stats_prepare_ns, xforms) / 1e3;
  m["core.plan_cache.hit_ratio"] = Ratio(static_cast<double>(t.cache_hits), xforms);
  double exec_ns = t.stats_execute_ns[0] + t.stats_execute_ns[1] +
                   t.stats_execute_ns[2];
  m["core.execute_ms"] = spanned_execute ? MeanSpanNs(spans, "core.execute") / 1e6
                                         : Ratio(exec_ns, xforms) / 1e6;
  m["core.materialize_ms"] = MeanSpanNs(spans, "core.materialize") / 1e6;
  m["core.par_tasks_per_xform"] = Ratio(t.par_tasks, xforms);
  m["core.threads_used"] = Ratio(t.threads_used, xforms);
  m["core.path_A_frac"] = Ratio(static_cast<double>(t.path_count[0]), xforms);
  m["core.path_B_frac"] = Ratio(static_cast<double>(t.path_count[1]), xforms);
  m["core.path_C_frac"] = Ratio(static_cast<double>(t.path_count[2]), xforms);
  m["core.path_changes"] = t.path_changes;

  // xslt
  m["xslt.parse_us"] = MeanSpanNs(spans, "xslt.parse") / 1e3;
  m["xslt.compile_us"] = MeanSpanNs(spans, "xslt.compile") / 1e3;
  m["xslt.vm_run_ms"] = SpanNsPer(spans, "xslt.vm_run", "probe.functional") / 1e6;

  // rewrite
  m["rewrite.xslt_to_xquery_us"] = MeanSpanNs(spans, "rewrite.xslt_to_xquery") / 1e3;
  m["rewrite.xquery_to_sql_us"] = MeanSpanNs(spans, "rewrite.xquery_to_sql") / 1e3;
  m["rewrite.reject_ratio"] = Ratio(static_cast<double>(t.rewrite_rejects),
                                    static_cast<double>(t.rewrite_attempts));

  // rel
  m["rel.optimize_us"] = MeanSpanNs(spans, "rel.optimize") / 1e3;
  const double plan_a = static_cast<double>(t.path_count[0]);
  const double plan_b = static_cast<double>(t.path_count[1]);
  m["rel.planA_execute_ms"] = spanned_execute
                                  ? MeanSpanNs(spans, "core.execute#A") / 1e6
                                  : Ratio(t.stats_execute_ns[0], plan_a) / 1e6;
  m["rel.used_index_frac"] = Ratio(static_cast<double>(t.used_index), plan_a);
  m["rel.join_build_rows"] = Ratio(t.join_build_rows, xforms);
  m["rel.join_probe_rows"] = Ratio(t.join_probe_rows, xforms);
  m["rel.join_match_rows"] = Ratio(t.join_match_rows, xforms);
  m["rel.structural_match_rows"] = Ratio(t.structural_match_rows, xforms);
  m["rel.structural_est_ratio"] = Ratio(t.structural_est_rows, t.structural_match_rows);

  // xquery
  m["xquery.planB_execute_ms"] = spanned_execute
                                     ? MeanSpanNs(spans, "core.execute#B") / 1e6
                                     : Ratio(t.stats_execute_ns[1], plan_b) / 1e6;

  // xml
  m["xml.serialize_ms"] = SpanNsPer(spans, "xml.serialize", "probe.functional") / 1e6;
  // bytes per ns -> MB/s
  m["xml.parse_mb_per_s"] = Ratio(t.parsed_bytes, t.parse_ns) * 1e3;

  // shred
  const double loads = static_cast<double>(t.loads);
  m["shred.parse_ms"] = Ratio(t.shred_parse_ns, loads) / 1e6;
  m["shred.shred_ms"] = Ratio(t.shred_ns, loads) / 1e6;
  m["shred.insert_ms"] = Ratio(t.insert_ns, loads) / 1e6;

  // wal
  m["wal.commit_us"] = Ratio(t.commit_us, loads);
  m["wal.fsyncs_per_load"] = Ratio(t.fsyncs, loads);
  m["wal.bytes_per_source_byte"] = Ratio(t.wal_bytes, t.source_bytes);
  m["wal.checkpoints"] = static_cast<double>(t.checkpoints);
  m["wal.recovery_replayed_records"] =
      static_cast<double>(t.recovery_replayed_records);

  // server
  m["server.repin_us"] = MeanSpanNs(spans, "server.repin") / 1e3;
  m["server.admission_wait_us"] =
      Ratio(t.admission_wait_ns, static_cast<double>(t.session_xforms)) / 1e3;
  m["server.live_epochs_max"] = static_cast<double>(t.live_epochs_max);
  m["server.epochs_published"] = static_cast<double>(t.epochs_published);
  m["server.writer_lag_ms"] = Quantile(t.writer_lag_ms, 0.99);
}

xdb::Result<std::vector<std::string>> SpannedTransform(
    xdb::XmlDb* db, const std::string& view, const std::string& stylesheet,
    const xdb::ExecOptions& options, SpanLog* log, uint64_t request,
    xdb::ExecStats* stats,
    std::shared_ptr<const xdb::core::PreparedTransform>* plan) {
  ScopedSpan root(log, "xform", request);
  {
    ScopedSpan s(log, "core.prepare", request);
    auto prepared = db->PrepareTransform(view, stylesheet, options, stats);
    if (!prepared.ok()) return prepared.status();
    *plan = prepared.MoveValue();
  }
  ScopedSpan s(log, "core.execute", request);
  s.Tag(PlanLetter((*plan)->path));
  return db->Execute(**plan, options, stats);
}

void ProbePrepare(xdb::XmlDb* db, const std::string& view,
                  const std::string& stylesheet, SpanLog* log,
                  uint64_t request, LayerTally* tally) {
  ScopedSpan probe(log, "probe.prepare", request);
  auto pub = db->catalog()->GetView(view);
  if (!pub.ok() || (*pub)->info == nullptr) return;

  std::unique_ptr<xdb::xslt::Stylesheet> parsed;
  {
    ScopedSpan s(log, "xslt.parse", request);
    auto r = xdb::xslt::Stylesheet::Parse(stylesheet);
    if (!r.ok()) return;
    parsed = r.MoveValue();
  }
  std::unique_ptr<xdb::xslt::CompiledStylesheet> compiled;
  {
    ScopedSpan s(log, "xslt.compile", request);
    auto r = xdb::xslt::CompiledStylesheet::Compile(*parsed);
    if (!r.ok()) return;
    compiled = r.MoveValue();
  }
  ++tally->rewrite_attempts;
  xdb::Result<xdb::xquery::Query> query = xdb::Status::Internal("unset");
  {
    ScopedSpan s(log, "rewrite.xslt_to_xquery", request);
    query = xdb::rewrite::RewriteXsltToXQuery(*compiled, &(*pub)->info->structure);
  }
  if (!query.ok()) {
    ++tally->rewrite_rejects;
    return;
  }
  xdb::Result<xdb::rewrite::SqlRewriteResult> sql = xdb::Status::Internal("unset");
  {
    ScopedSpan s(log, "rewrite.xquery_to_sql", request);
    sql = xdb::rewrite::RewriteXQueryToSql(*query, **pub, *db->catalog());
  }
  if (!sql.ok()) return;
  ScopedSpan s(log, "rel.optimize", request);
  xdb::rel::Optimizer optimizer(xdb::rel::OptimizerOptions{}, db->catalog());
  auto optimized = optimizer.Run(std::move(sql->expr));
  (void)optimized;
}

void ProbeFunctional(xdb::XmlDb* db, const xdb::core::PreparedTransform& plan,
                     bool materialize_only, SpanLog* log, uint64_t request,
                     LayerTally* tally) {
  ScopedSpan probe(log, "probe.functional", request);
  xdb::Result<std::vector<std::string>> rows = xdb::Status::Internal("unset");
  {
    ScopedSpan s(log, "core.materialize", request);
    rows = db->MaterializeView(plan.view_name);
  }
  if (!rows.ok() || materialize_only || plan.compiled == nullptr) return;

  std::vector<std::unique_ptr<xdb::xml::Document>> docs;
  docs.reserve(rows->size());
  {
    ScopedSpan s(log, "xml.parse", request);
    int64_t t0 = NowNs();
    for (const std::string& row : *rows) {
      auto doc = xdb::xml::ParseDocument(row);
      if (!doc.ok()) return;
      tally->parsed_bytes += static_cast<double>(row.size());
      docs.push_back(doc.MoveValue());
    }
    tally->parse_ns += static_cast<double>(NowNs() - t0);
  }
  std::vector<std::unique_ptr<xdb::xml::Document>> outputs;
  outputs.reserve(docs.size());
  {
    ScopedSpan s(log, "xslt.vm_run", request);
    xdb::xslt::Vm vm(*plan.compiled);
    for (auto& doc : docs) {
      auto out = vm.Transform(doc->root());
      if (!out.ok()) return;
      outputs.push_back(out.MoveValue());
    }
  }
  ScopedSpan s(log, "xml.serialize", request);
  size_t bytes = 0;
  for (auto& out : outputs) bytes += xdb::xml::Serialize(out->root()).size();
  (void)bytes;
}

void CanonicalCheck::SetReference(std::vector<std::string> rows) {
  reference_ = std::move(rows);
  reference_canonical_.clear();
  accepted_.clear();
}

void CanonicalCheck::Corrupt() {
  if (reference_.empty()) reference_.push_back("");
  reference_[0] += "<corrupted/>";
  reference_canonical_.clear();
}

bool CanonicalCheck::Matches(const std::vector<std::string>& rows) {
  if (rows == reference_ || (!accepted_.empty() && rows == accepted_)) {
    return true;
  }
  if (rows.size() != reference_.size()) return false;
  if (reference_canonical_.empty()) {
    for (const std::string& row : reference_) {
      auto c = xdb::difftest::CanonicalizeXml(row);
      reference_canonical_.push_back(c.ok() ? *c : "\x01unparseable:" + row);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] == reference_[i]) continue;
    auto c = xdb::difftest::CanonicalizeXml(rows[i]);
    if (!c.ok() || *c != reference_canonical_[i]) return false;
  }
  accepted_ = rows;
  return true;
}

}  // namespace e2ebench
