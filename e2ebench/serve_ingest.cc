// serve_ingest: reads beside writes on one durable database. Three
// closed-loop reader sessions each Repin and Session::Transform per request,
// round-robin over a 4-statement mix (index probe, aggregate, nested
// for-each group join, .//order structural sweep) on shredded `people` and
// `shop` views, threads = 1. One writer loads small `shop` documents into a
// separate `ingest` view open-loop at a fixed rate, so data and epoch churn
// are the same whatever the speed of either side. At the end the database is
// closed and re-opened to time recovery and check that the `ingest` view
// holds exactly the acknowledged loads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "layers.h"
#include "schema/structure.h"
#include "server/session.h"
#include "xml/parser.h"

namespace e2ebench {
namespace {

constexpr int kReaders = 3;
// Set-ups timed before the measured window, and again after recovery: the
// host's speed drifts over a run, and set-ups at both ends let the median
// see it.
constexpr int kSetupReps = 15;
constexpr int kRecoveryReps = 3;
constexpr double kLoadsPerSecond = 20;
constexpr int kPeopleDocs = 4;
constexpr int kPeopleRows = 1000;
constexpr int kShopDocs = 4;
constexpr int kShopCustomers = 100;
constexpr int kIngestCustomers = 25;
// Request ids: reader r's k-th request is (r << 40) | k, the writer's
// k-th load kWriterRequest | k.
constexpr uint64_t kWriterRequest = 1ull << 62;

const char* const kCities[] = {"BOSTON", "DENVER", "AUSTIN", "SEATTLE",
                               "CHICAGO", "MIAMI", "PORTLAND", "ATLANTA"};
const char* const kStatus[] = {"open", "paid", "shipped", "returned"};

#define XSL_HEAD \
  "<xsl:stylesheet version=\"1.0\" " \
  "xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">"

struct Statement {
  const char* name;
  const char* view;
  std::string stylesheet;
};

std::vector<Statement> Statements(Rng* rng) {
  char id[16];
  std::snprintf(id, sizeof(id), "p%05d",
                static_cast<int>(rng->Below(kPeopleDocs * kPeopleRows)));
  return {
      {"index_probe", "people",
       std::string(XSL_HEAD) +
           "<xsl:template match=\"people\"><hit><xsl:apply-templates "
           "select=\"row[id = '" + id + "']\"/></hit></xsl:template>"
           "<xsl:template match=\"row\"><p><xsl:value-of select=\"name\"/> "
           "<xsl:value-of select=\"city\"/></p></xsl:template>"
           "<xsl:template match=\"text()\"/></xsl:stylesheet>"},
      {"aggregate", "people",
       XSL_HEAD
       "<xsl:template match=\"people\"><agg><n><xsl:value-of "
       "select=\"count(row)\"/></n><s><xsl:value-of select=\"sum(row/age)\"/>"
       "</s></agg></xsl:template></xsl:stylesheet>"},
      {"group_join", "shop",
       XSL_HEAD
       "<xsl:template match=\"shop\"><r><xsl:for-each select=\"customer\">"
       "<c><xsl:value-of select=\"name\"/><xsl:for-each select=\"order\">"
       "<o><xsl:value-of select=\"amount\"/></o></xsl:for-each></c>"
       "</xsl:for-each></r></xsl:template></xsl:stylesheet>"},
      {"order_sweep", "shop",
       XSL_HEAD
       "<xsl:template match=\"shop\"><big><xsl:for-each "
       "select=\".//order[amount &gt; 900]\"><o><xsl:value-of select=\"oid\"/>"
       "</o></xsl:for-each></big></xsl:template></xsl:stylesheet>"},
  };
}

// Read back after recovery: one row per acknowledged ingest document, its
// order count (1-10 orders per customer) as a fingerprint. Kept to a
// structural-join count: child-path aggregates over this view grow with the
// square of the document count (seconds at a few hundred documents).
const char* const kIngestStylesheet =
    XSL_HEAD
    "<xsl:template match=\"shop\"><d><xsl:value-of select=\"count(.//order)\"/>"
    "</d></xsl:template></xsl:stylesheet>";

xdb::schema::StructuralInfo PeopleStructure() {
  xdb::schema::StructureBuilder b;
  auto* people = b.Element("people");
  auto* row = b.AddChild(people, "row", 0, -1);
  for (const char* field : {"id", "name", "city", "age"}) {
    b.AddText(b.AddChild(row, field));
  }
  return b.Build(people);
}

xdb::schema::StructuralInfo ShopStructure() {
  xdb::schema::StructureBuilder b;
  auto* shop = b.Element("shop");
  auto* customer = b.AddChild(shop, "customer", 0, -1);
  b.AddText(b.AddChild(customer, "cid"));
  b.AddText(b.AddChild(customer, "name"));
  auto* order = b.AddChild(customer, "order", 0, -1);
  for (const char* field : {"oid", "amount", "status"}) {
    b.AddText(b.AddChild(order, field));
  }
  return b.Build(shop);
}

std::string PeopleDoc(int first_id, Rng* rng) {
  std::string doc = "<people>";
  for (int i = 0; i < kPeopleRows; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "<row><id>p%05d</id><name>n%llu</name><city>%s</city>"
                  "<age>%d</age></row>",
                  first_id + i, static_cast<unsigned long long>(rng->Below(1000000)),
                  kCities[rng->Below(8)], static_cast<int>(18 + rng->Below(70)));
    doc += buf;
  }
  return doc + "</people>";
}

std::string ShopDoc(int customers, int* next_id, Rng* rng) {
  std::string doc = "<shop>";
  for (int c = 0; c < customers; ++c) {
    char buf[160];
    int id = (*next_id)++;
    std::snprintf(buf, sizeof(buf), "<customer><cid>c%06d</cid><name>cust%d</name>",
                  id, static_cast<int>(rng->Below(100000)));
    doc += buf;
    // Sizes do not depend on the seed (only values do), so runs with
    // different seeds do the same amount of work.
    int orders = 1 + c % 10;
    for (int o = 0; o < orders; ++o) {
      std::snprintf(buf, sizeof(buf),
                    "<order><oid>o%06d-%d</oid><amount>%d</amount>"
                    "<status>%s</status></order>",
                    id, o, static_cast<int>(1 + rng->Below(1000)),
                    kStatus[rng->Below(4)]);
      doc += buf;
    }
    doc += "</customer>";
  }
  return doc + "</shop>";
}

struct Inputs {
  std::vector<std::string> people, shop, ingest;
  std::vector<Statement> statements;
};

struct State {
  std::unique_ptr<xdb::XmlDb> db;
  std::unique_ptr<xdb::server::SessionManager> mgr;  ///< uses db: reset first

  void Close() {
    mgr.reset();
    db.reset();
  }
};

xdb::wal::DurabilityOptions Durability(const std::string& dir) {
  xdb::wal::DurabilityOptions options;
  options.data_dir = dir;
  options.sync = xdb::wal::SyncMode::kBatch;
  return options;
}

bool Check(const xdb::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "serve_ingest: %s: %s\n", what, s.ToString().c_str());
  }
  return s.ok();
}

// Opens a durable database in `dir`, registers and loads the read views,
// warms every statement through a session; false on any library error.
bool BuildState(const Inputs& in, const std::string& dir, State* state) {
  state->Close();
  state->db = std::make_unique<xdb::XmlDb>();
  xdb::XmlDb* db = state->db.get();
  if (!Check(db->OpenDurable(Durability(dir)), "open")) return false;
  xdb::shred::ShredOptions people_options;
  people_options.value_indexes = {"row/id"};
  if (!Check(db->RegisterShreddedSchema("people", PeopleStructure(), people_options),
             "register people") ||
      !Check(db->RegisterShreddedSchema("shop", ShopStructure()), "register shop") ||
      !Check(db->RegisterShreddedSchema("ingest", ShopStructure()),
             "register ingest")) {
    return false;
  }
  for (const std::string& doc : in.people) {
    if (!Check(db->LoadDocument("people", doc).status(), "load people")) return false;
  }
  for (const std::string& doc : in.shop) {
    if (!Check(db->LoadDocument("shop", doc).status(), "load shop")) return false;
  }
  state->mgr = std::make_unique<xdb::server::SessionManager>(db);
  auto session = state->mgr->Begin();
  if (!Check(session.status(), "begin")) return false;
  xdb::ExecOptions options;
  options.threads = 1;
  for (const Statement& st : in.statements) {
    if (!Check((*session)->Transform(st.view, st.stylesheet, options).status(),
               "warm-up")) {
      return false;
    }
  }
  return true;
}

struct ReaderResult {
  SpanLog log;
  LayerTally tally;
  std::vector<double> plain_ms[4];
  std::vector<double> traced_ms;
  double busy_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Plan shape of each statement's first good response (breakdown rows).
  struct PlanInfo {
    char plan = '?';
    bool used_index = false;
    int joins_lowered = 0;
    uint64_t structural_joins = 0;
  } plans[4];
};

struct WriterResult {
  SpanLog log;
  LayerTally tally;
  std::vector<double> load_ms;
  double busy_s = 0;
  uint64_t attempted = 0;
  uint64_t acked = 0;
};

void Reader(int r, const Inputs& in, const std::vector<std::vector<std::string>>& refs,
            xdb::server::SessionManager* mgr, bool trace, int64_t deadline,
            ReaderResult* out) {
  auto session = mgr->Begin();
  if (!session.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  xdb::ExecOptions options;
  options.threads = 1;
  CpuRotation rotation(r);
  for (uint64_t k = 0; NowNs() < deadline; ++k) {
    rotation.Tick();
    const size_t st = (static_cast<size_t>(r) + k) % in.statements.size();
    const Statement& statement = in.statements[st];
    // A traced run alternates untraced and traced rounds of the mix.
    const bool traced = trace && (k / in.statements.size()) % 2 == 1;
    SpanLog* lg = traced ? &out->log : nullptr;
    const uint64_t request = (static_cast<uint64_t>(r) << 40) | k;
    ++out->attempted;
    xdb::ExecStats stats;
    int64_t transform_ns = 0;
    int64_t t0 = NowNs();
    xdb::Result<std::vector<std::string>> rows = xdb::Status::Internal("unset");
    {
      ScopedSpan root(lg, "xform", request);
      {
        ScopedSpan s(lg, "server.repin", request);
        (*session)->Repin();
      }
      ScopedSpan s(lg, "server.transform", request);
      int64_t tt = NowNs();
      rows = (*session)->Transform(statement.view, statement.stylesheet, options,
                                   &stats);
      transform_ns = NowNs() - tt;
    }
    double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!rows.ok() || *rows != refs[st]) {
      if (out->failed++ == 0) {
        std::fprintf(stderr, "serve_ingest: %s: %s\n", statement.name,
                     rows.ok() ? "output differs from the serial reference"
                               : rows.status().ToString().c_str());
      }
      continue;
    }
    if (out->plans[st].plan == '?') {
      out->plans[st] = {PlanLetter(stats.path), stats.used_index,
                        stats.joins_lowered, stats.structural_joins};
    }
    if (traced) {
      out->traced_ms.push_back(ms);
      out->tally.AddXform(stats);
      out->tally.admission_wait_ns += static_cast<double>(
          transform_ns - stats.prepare_ns - stats.execute_ns);
      ++out->tally.session_xforms;
    } else {
      out->plain_ms[st].push_back(ms);
      out->busy_s += ms / 1e3;
    }
  }
}

void Writer(const Inputs& in, xdb::server::SessionManager* mgr, bool trace,
            int64_t start, int64_t deadline, WriterResult* out) {
  const int64_t period_ns = static_cast<int64_t>(1e9 / kLoadsPerSecond);
  CpuRotation rotation(kReaders);
  for (size_t k = 0; k < in.ingest.size(); ++k) {
    const int64_t due = start + static_cast<int64_t>(k) * period_ns;
    if (due >= deadline) break;
    int64_t now = NowNs();
    if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    rotation.Tick();
    const int64_t begin = NowNs();
    out->tally.writer_lag_ms.push_back(static_cast<double>(begin - due) / 1e6);
    SpanLog* lg = trace ? &out->log : nullptr;
    ++out->attempted;
    xdb::Result<xdb::shred::LoadStats> load = xdb::Status::Internal("unset");
    {
      ScopedSpan s(lg, "server.load", kWriterRequest | k);
      load = mgr->LoadDocument("ingest", in.ingest[k]);
    }
    const int64_t end = NowNs();
    if (!load.ok()) continue;  // counted as failed: attempted - acked
    ++out->acked;
    out->load_ms.push_back(static_cast<double>(end - due) / 1e6);
    out->busy_s += static_cast<double>(end - begin) / 1e9;
    out->tally.AddLoad(*load);
    out->tally.live_epochs_max =
        std::max<uint64_t>(out->tally.live_epochs_max, mgr->live_epochs());
    if (trace) {
      ScopedSpan s(lg, "xml.parse", kWriterRequest | k);
      int64_t p0 = NowNs();
      auto doc = xdb::xml::ParseDocument(in.ingest[k]);
      out->tally.parse_ns += static_cast<double>(NowNs() - p0);
      if (doc.ok()) out->tally.parsed_bytes += static_cast<double>(in.ingest[k].size());
    }
  }
}

}  // namespace

bool RunServeIngest(const Args& args, Report* report) {
  // Inputs: benchmark-side generation, excluded from set-up time.
  Inputs in;
  Rng rng(args.seed);
  for (int d = 0; d < kPeopleDocs; ++d) in.people.push_back(PeopleDoc(d * kPeopleRows, &rng));
  int next_customer = 0;
  for (int d = 0; d < kShopDocs; ++d) {
    in.shop.push_back(ShopDoc(kShopCustomers, &next_customer, &rng));
  }
  const size_t ingest_docs = static_cast<size_t>(kLoadsPerSecond * args.seconds) + 1;
  for (size_t d = 0; d < ingest_docs; ++d) {
    in.ingest.push_back(ShopDoc(kIngestCustomers, &next_customer, &rng));
  }
  in.statements = Statements(&rng);

  namespace fs = std::filesystem;
  const std::string base =
      args.work_dir + "/serve_ingest-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(base, ec);
  State state;
  std::string dir;
  std::vector<double> setup_s;
  auto timed_setups = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      state.Close();
      if (!dir.empty()) fs::remove_all(dir, ec);
      dir = base + "/db" + std::to_string(setup_s.size());
      int64_t t0 = NowNs();
      if (!BuildState(in, dir, &state)) {
        state.Close();
        fs::remove_all(base, ec);
        return false;
      }
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return true;
  };
  if (!timed_setups()) return false;
  xdb::XmlDb* db = state.db.get();

  // Serial references through the plain (non-session) path.
  std::vector<std::vector<std::string>> refs;
  for (const Statement& st : in.statements) {
    auto rows = db->TransformView(st.view, st.stylesheet);
    if (!Check(rows.status(), "reference")) return false;
    refs.push_back(rows.MoveValue());
  }
  if (args.corrupt_reference) refs[0].push_back("<corrupted/>");

  const uint64_t epoch0 = state.mgr->head_epoch();
  const xdb::wal::WalMetrics wal0 = db->wal_metrics();
  std::vector<ReaderResult> readers(kReaders);
  WriterResult writer;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds) * 1000000000;
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(Reader, r, std::cref(in), std::cref(refs), state.mgr.get(),
                           args.trace, deadline, &readers[static_cast<size_t>(r)]);
    }
    threads.emplace_back(Writer, std::cref(in), state.mgr.get(), args.trace, start,
                         deadline, &writer);
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  const xdb::wal::WalMetrics wal1 = db->wal_metrics();

  LayerTally tally = writer.tally;
  tally.epochs_published = state.mgr->head_epoch() - epoch0;
  tally.checkpoints = wal1.checkpoints - wal0.checkpoints;
  std::vector<double> plain_all, traced_all, stmt_medians;
  double per_s = 0;
  for (ReaderResult& rr : readers) {
    report->attempted += rr.attempted;
    report->failed += rr.failed;
    tally.Merge(rr.tally);
    size_t done = 0;
    for (const auto& v : rr.plain_ms) {
      plain_all.insert(plain_all.end(), v.begin(), v.end());
      done += v.size();
    }
    traced_all.insert(traced_all.end(), rr.traced_ms.begin(), rr.traced_ms.end());
    if (rr.busy_s > 0) per_s += static_cast<double>(done) / rr.busy_s;
  }
  report->attempted += writer.attempted;
  report->failed += writer.attempted - writer.acked;

  // Shutdown, then recovery: the ingest view must hold exactly the
  // acknowledged loads and read back as it did before shutdown.
  ++report->attempted;
  auto before = db->TransformView("ingest", kIngestStylesheet);
  if (!before.ok() || before->size() != writer.acked) ++report->failed;
  state.Close();
  std::vector<double> recovery_s;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    xdb::XmlDb reopened;
    int64_t t0 = NowNs();
    xdb::Status s = reopened.OpenDurable(Durability(dir));
    recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++report->attempted;
    if (!s.ok()) {
      ++report->failed;
      continue;
    }
    tally.recovery_replayed_records = reopened.last_recovery().replayed_records;
    auto after = reopened.TransformView("ingest", kIngestStylesheet);
    if (!before.ok() || !after.ok() || *after != *before) ++report->failed;
    if (rep == 0) {
      for (size_t st = 0; st < in.statements.size(); ++st) {
        ++report->attempted;
        auto rows = reopened.TransformView(in.statements[st].view,
                                           in.statements[st].stylesheet);
        if (!rows.ok() || *rows != refs[st]) ++report->failed;
      }
    }
  }
  if (!timed_setups()) return false;
  state.Close();
  fs::remove_all(base, ec);

  // ---- metrics ----------------------------------------------------------------
  auto& m = report->metrics;
  for (size_t st = 0; st < in.statements.size(); ++st) {
    std::vector<double> v;
    for (const ReaderResult& rr : readers) {
      v.insert(v.end(), rr.plain_ms[st].begin(), rr.plain_ms[st].end());
    }
    stmt_medians.push_back(Median(v));
    const ReaderResult::PlanInfo& s = readers[0].plans[st];
    char row[640];
    std::snprintf(row, sizeof(row),
                  "{\"workload\": \"serve_ingest\", \"statement\": \"%s\", "
                  "\"plan\": \"%c\", \"used_index\": %d, \"joins_lowered\": %d, "
                  "\"structural_joins\": %llu, \"n\": %zu, \"p50_ms\": %s, "
                  "\"p99_ms\": %s}",
                  in.statements[st].name, s.plan, s.used_index ? 1 : 0,
                  s.joins_lowered, static_cast<unsigned long long>(s.structural_joins),
                  v.size(), JsonNumber(Quantile(v, 0.5)).c_str(),
                  JsonNumber(Quantile(v, 0.99)).c_str());
    report->rows.push_back(row);
  }
  char row[512];
  std::snprintf(row, sizeof(row),
                "{\"workload\": \"serve_ingest\", \"writer\": \"open-loop\", "
                "\"loads_per_s\": %s, \"sync\": \"%s\", \"acked\": %llu, "
                "\"busy_frac\": %s, \"source_mb\": %s}",
                JsonNumber(kLoadsPerSecond).c_str(),
                xdb::wal::SyncModeName(xdb::wal::SyncMode::kBatch),
                static_cast<unsigned long long>(writer.acked),
                JsonNumber(writer.busy_s / elapsed_s).c_str(),
                JsonNumber(writer.tally.source_bytes / 1e6).c_str());
  report->rows.push_back(row);

  m["xform_p50_ms"] = Quantile(plain_all, 0.5);
  m["xform_p99_ms"] = Quantile(plain_all, 0.99);
  m["xform_samples"] = static_cast<double>(plain_all.size());
  m["xform_per_s"] = per_s;
  m["case_geomean_ms"] = Geomean(stmt_medians);
  m["load_p50_ms"] = Quantile(writer.load_ms, 0.5);
  m["load_p99_ms"] = Quantile(writer.load_ms, 0.99);
  m["recovery_s"] = Median(recovery_s);
  m["setup_s"] = Median(setup_s);
  if (args.trace) {
    m["trace.overhead_p50_ms"] =
        Quantile(traced_all, 0.5) - Quantile(plain_all, 0.5);
    std::vector<const SpanLog*> logs{&writer.log};
    for (const ReaderResult& rr : readers) logs.push_back(&rr.log);
    EmitLayerMetrics(tally, SummarizeSpans(logs), report);
    if (!args.spans_path.empty()) WriteSpans(args.spans_path, logs);
  }
  return true;
}

}  // namespace e2ebench
