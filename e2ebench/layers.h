// Per-layer measurement: the counters a traced run sums from ExecStats and
// LoadStats, the probes that time one module's public function at a time,
// and the output checks every workload applies.
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/xmldb.h"

namespace e2ebench {

/// 0, 1, 2 (or 'A', 'B', 'C') for the paper's three plans.
int PlanIndex(xdb::ExecutionPath path);
char PlanLetter(xdb::ExecutionPath path);

/// Raw per-layer inputs summed over the traced requests of one run.
struct LayerTally {
  // -- transform requests (ExecStats) ---------------------------------------
  uint64_t xforms = 0;
  uint64_t cache_hits = 0;
  uint64_t path_count[3] = {0, 0, 0};
  uint64_t used_index = 0;  ///< plan-A requests whose plan probes an index
  double par_tasks = 0;
  double threads_used = 0;
  double join_build_rows = 0;
  double join_probe_rows = 0;
  double join_match_rows = 0;
  double structural_match_rows = 0;
  double structural_est_rows = 0;
  /// The library's own prepare/execute clocks (ExecStats), per plan for
  /// execute: the only view of those stages inside Session::Transform.
  double stats_prepare_ns = 0;
  double stats_execute_ns[3] = {0, 0, 0};
  /// Session::Transform wall time minus prepare_ns + execute_ns.
  double admission_wait_ns = 0;
  uint64_t session_xforms = 0;
  /// Cases whose plan differs from the seed commit's list.
  int path_changes = 0;

  // -- probes ---------------------------------------------------------------
  uint64_t rewrite_attempts = 0;
  uint64_t rewrite_rejects = 0;
  double parsed_bytes = 0;  ///< input of timed xml::ParseDocument probes
  double parse_ns = 0;

  // -- writer (LoadStats / WalMetrics / SessionManager gauges) --------------
  uint64_t loads = 0;
  double shred_parse_ns = 0;
  double shred_ns = 0;
  double insert_ns = 0;
  double commit_us = 0;
  double fsyncs = 0;
  double wal_bytes = 0;
  double source_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t recovery_replayed_records = 0;
  uint64_t live_epochs_max = 0;
  uint64_t epochs_published = 0;
  std::vector<double> writer_lag_ms;

  void AddXform(const xdb::ExecStats& stats);
  void AddLoad(const xdb::shred::LoadStats& stats);
  void Merge(const LayerTally& other);
};

/// Stores every per-layer metric into `report->metrics`. Timings come from
/// the benchmark's spans where it called the function itself, else from the
/// library's ExecStats clocks. A layer this workload does not exercise
/// reads 0.
void EmitLayerMetrics(const LayerTally& tally,
                      const std::map<std::string, SpanTotals>& spans,
                      Report* report);

/// One XmlDb transform request: PrepareTransform then Execute, each under
/// its span (the execute span tagged with the plan letter). Fills `stats`
/// and, when it got that far, `plan`.
xdb::Result<std::vector<std::string>> SpannedTransform(
    xdb::XmlDb* db, const std::string& view, const std::string& stylesheet,
    const xdb::ExecOptions& options, SpanLog* log, uint64_t request,
    xdb::ExecStats* stats,
    std::shared_ptr<const xdb::core::PreparedTransform>* plan);

/// Times the prepare path one public call at a time (Stylesheet::Parse,
/// CompiledStylesheet::Compile, RewriteXsltToXQuery, RewriteXQueryToSql,
/// Optimizer::Run) under a "probe.prepare" span. `view` must be a
/// publishing view (xsltmark families and shredded views are).
void ProbePrepare(xdb::XmlDb* db, const std::string& view,
                  const std::string& stylesheet, SpanLog* log,
                  uint64_t request, LayerTally* tally);

/// Times the functional plan one public call at a time: MaterializeView,
/// then per row xml::ParseDocument, Vm::Transform and xml::Serialize.
/// With `materialize_only` only the first step runs (plan B's input).
void ProbeFunctional(xdb::XmlDb* db, const xdb::core::PreparedTransform& plan,
                     bool materialize_only, SpanLog* log, uint64_t request,
                     LayerTally* tally);

/// Reference outputs of one transform, compared with the difftest
/// canonicalizer. Raw bytes equal to the reference (or to an output already
/// accepted) pass without canonicalizing; outputs are deterministic, so
/// only the first request of a case pays for canonicalization.
class CanonicalCheck {
 public:
  void SetReference(std::vector<std::string> rows);
  /// Appends junk to the first reference row (self-test of the check).
  void Corrupt();
  bool Matches(const std::vector<std::string>& rows);

 private:
  std::vector<std::string> reference_;
  std::vector<std::string> reference_canonical_;  ///< filled lazily
  std::vector<std::string> accepted_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
