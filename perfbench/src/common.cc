#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "optimizer/what_if.h"

namespace aim::perfbench {

bool Tally::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "failed operation: %s\n", what.c_str());
  }
  return ok;
}

bool Tally::Check(bool ok, const std::string& what) {
  if (!Op(ok, "check " + what)) correct_ = false;
  return ok;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::multiset<std::string> RowMultiset(const executor::ExecuteResult& r) {
  std::multiset<std::string> rows;
  for (const storage::Row& row : r.rows) {
    std::string key;
    for (const sql::Value& v : row) key += v.ToSqlLiteral() + "|";
    rows.insert(std::move(key));
  }
  return rows;
}

storage::Database UnindexedCopy(const storage::Database& db) {
  storage::Database copy = db;
  for (catalog::IndexId id : SecondaryIndexes(copy)) {
    (void)copy.DropIndex(id);
  }
  return copy;
}

bool ReferenceResults(storage::Database* db, const workload::Workload& w,
                      std::vector<std::multiset<std::string>>* out) {
  out->clear();
  executor::Executor ex(db, optimizer::CostModel());
  for (const workload::Query& q : w.queries) {
    Result<executor::ExecuteResult> r = ex.Execute(q.stmt);
    if (!r.ok()) return false;
    out->push_back(RowMultiset(r.ValueOrDie()));
  }
  return true;
}

bool IndexMatchesHeap(const storage::Database& db, catalog::IndexId id) {
  const catalog::IndexDef* def = db.catalog().index(id);
  const storage::BTreeIndex* tree = db.btree(id);
  if (def == nullptr || tree == nullptr) return false;
  const storage::HeapTable& heap = db.heap(def->table);
  if (tree->entry_count() != heap.live_count()) return false;
  std::vector<bool> seen(heap.slot_count(), false);
  bool ok = true;
  tree->ScanAll([&](const storage::Row& key, storage::RowId rid) {
    if (!heap.IsLive(rid) || seen[rid]) {
      ok = false;
      return false;
    }
    seen[rid] = true;
    const storage::Row expected = db.MakeIndexKey(*def, heap.row(rid));
    if (expected.size() != key.size()) {
      ok = false;
      return false;
    }
    for (size_t i = 0; i < key.size(); ++i) {
      if (expected[i].Compare(key[i]) != 0) {
        ok = false;
        return false;
      }
    }
    return true;
  });
  return ok;
}

std::vector<catalog::IndexId> SecondaryIndexes(const storage::Database& db) {
  std::vector<catalog::IndexId> ids;
  for (const catalog::IndexDef* def :
       db.catalog().AllIndexes(/*include_hypothetical=*/false,
                               /*include_primary=*/false)) {
    ids.push_back(def->id);
  }
  return ids;
}

double CatalogIndexSlots(const catalog::Catalog& catalog) {
  // Probe with an index no advisor proposes: every column of the widest
  // table, in reverse order.
  size_t widest = 0;
  for (size_t t = 0; t < catalog.table_count(); ++t) {
    if (catalog.table(t).columns.size() >
        catalog.table(widest).columns.size()) {
      widest = t;
    }
  }
  catalog::Catalog copy = catalog;
  catalog::IndexDef probe;
  probe.table = static_cast<catalog::TableId>(widest);
  for (size_t c = catalog.table(widest).columns.size(); c > 0; --c) {
    probe.columns.push_back(static_cast<catalog::ColumnId>(c - 1));
  }
  probe.hypothetical = true;
  Result<catalog::IndexId> id = copy.AddIndex(probe);
  return id.ok() ? static_cast<double>(id.ValueOrDie()) : 0.0;
}

double CatalogLiveIndexes(const catalog::Catalog& catalog) {
  return static_cast<double>(catalog.AllIndexes(true, true).size());
}

uint64_t LiveRows(const storage::Database& db) {
  uint64_t rows = 0;
  for (size_t t = 0; t < db.catalog().table_count(); ++t) {
    rows += db.heap(static_cast<catalog::TableId>(t)).live_count();
  }
  return rows;
}

Result<double> EstimatedCost(const catalog::Catalog& catalog,
                             const workload::Workload& w, bool unindexed) {
  catalog::Catalog copy = catalog;
  for (const catalog::IndexDef* def : catalog.AllIndexes(true, false)) {
    if (def->hypothetical || unindexed) (void)copy.DropIndex(def->id);
  }
  optimizer::WhatIfOptimizer what_if(copy, optimizer::CostModel());
  return what_if.WorkloadCost(w.statements(), w.weights());
}

double ExecutePass(storage::Database* db, const workload::Workload& w,
                   const std::vector<std::multiset<std::string>>* reference,
                   const std::string& label, Tally* tally,
                   std::vector<double>* latencies_ms) {
  obs::Span span(obs::Tracer::Get(), "bench.exec_pass");
  executor::Executor ex(db, optimizer::CostModel());
  std::vector<Result<executor::ExecuteResult>> results;
  results.reserve(w.queries.size());
  const auto pass_begin = Clock::now();
  for (const workload::Query& q : w.queries) {
    const auto t0 = Clock::now();
    results.push_back(ex.Execute(q.stmt));
    if (latencies_ms != nullptr) latencies_ms->push_back(Since(t0) * 1e3);
  }
  const double pass_s = Since(pass_begin);
  span.End();
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string what = label + " statement " + std::to_string(i);
    if (!tally->Op(results[i].ok(), what)) continue;
    if (reference != nullptr) {
      tally->Check(RowMultiset(results[i].ValueOrDie()) == (*reference)[i],
                   what + " rows equal the unindexed reference");
    }
  }
  return pass_s;
}

std::vector<catalog::IndexDef> RealIndexDefs(
    std::vector<catalog::IndexDef> defs) {
  for (catalog::IndexDef& d : defs) {
    d.id = catalog::kInvalidIndex;
    d.hypothetical = false;
  }
  return defs;
}

void MeasureIndexBuild(const storage::Database& base,
                       const std::vector<catalog::IndexDef>& defs,
                       Tally* tally, LayerInputs* layer) {
  storage::Database clone = base;
  for (const catalog::IndexDef& d : defs) {
    layer->index_build_rows += base.heap(d.table).live_count();
  }
  const auto t0 = Clock::now();
  std::vector<Result<catalog::IndexId>> ids =
      clone.CreateIndexes(RealIndexDefs(defs));
  layer->index_build_s += Since(t0);
  for (const Result<catalog::IndexId>& id : ids) {
    tally->Op(id.ok(), "clone index build");
  }
}

TraceScope::TraceScope(obs::Tracer* tracer) {
  if (tracer == nullptr) return;
  previous_ = obs::Tracer::Install(tracer);
  installed_ = true;
}

TraceScope::~TraceScope() {
  if (installed_) obs::Tracer::Install(previous_);
}

uint64_t SpanFold::Count(const std::string& name) const {
  auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}
double SpanFold::Total(const std::string& name) const {
  auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}
double SpanFold::Self(const std::string& name) const {
  auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}
double SpanFold::Attr(const std::string& name,
                      const std::string& attr) const {
  auto it = attr_sum.find(name + "/" + attr);
  return it == attr_sum.end() ? 0.0 : it->second;
}

SpanFold FoldSpans(const obs::Tracer& tracer) {
  const std::vector<obs::Tracer::SpanRecord> spans = tracer.Snapshot();
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const obs::Tracer::SpanRecord& s : spans) {
    auto parent = by_id.find(s.parent);
    if (s.parent != 0 && parent != by_id.end()) {
      children[parent->second].emplace_back(s.begin_us, s.end_us);
    }
  }
  SpanFold fold;
  fold.spans = spans.size();
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Tracer::SpanRecord& s = spans[i];
    // Covered length: union of the children's intervals, clipped to the
    // parent's (children on other threads may overlap each other).
    std::vector<std::pair<uint64_t, uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cur_begin = 0, cur_end = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, s.begin_us);
      e = std::min(e, s.end_us);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    }
    if (open) covered += cur_end - cur_begin;
    const uint64_t dur = s.end_us - s.begin_us;
    fold.count[s.name] += 1;
    fold.total_s[s.name] += static_cast<double>(dur) * 1e-6;
    fold.self_s[s.name] +=
        static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
    for (const obs::TraceAttr& a : s.attrs) {
      if (a.numeric) fold.attr_sum[s.name + "/" + a.key] += std::stod(a.value);
    }
  }
  return fold;
}

void LayerInputs::AddAimStats(const core::AimRunStats& s) {
  cache_hits += static_cast<double>(s.cache_hits);
  cache_misses += static_cast<double>(s.cache_misses);
  partial_orders += static_cast<double>(s.partial_orders_generated);
  partial_orders_merged += static_cast<double>(s.partial_orders_after_merge);
  candidates_evaluated += static_cast<double>(s.candidates_evaluated);
  online_delta_applied += static_cast<double>(s.online_delta_applied);
  stats_validation_s += s.validation_seconds;
  stats_ranking_s += s.ranking_seconds;
}

void LayerInputs::AddRoundTune(bool traced, double tune_s) {
  if (!traced) {
    last_untraced_tune_s_ = tune_s;
    return;
  }
  traced_tune_s.push_back(tune_s);
  if (last_untraced_tune_s_ >= 0) {
    trace_overhead_s.push_back(tune_s - last_untraced_tune_s_);
  }
  last_untraced_tune_s_ = -1;
}

std::vector<Metric> LayerMetrics(const obs::Tracer& tracer,
                                 const LayerInputs& in, Tally* tally) {
  tally->Check(tracer.CheckBalanced().ok(), "trace is balanced");
  const SpanFold f = FoldSpans(tracer);
  const double rounds = std::max(1.0, in.traced_rounds);
  auto per = [&](double total) { return total / rounds; };
  auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Spans and AimRunStats are one measurement (PhaseTimer feeds both), so
  // their totals agree up to clock granularity.
  auto agree = [&](const char* span, double stats_s) {
    tally->Check(std::fabs(f.Total(span) - stats_s) <=
                     0.02 * stats_s + 1e-3 * (1 + f.Count(span)),
                 std::string(span) + " spans agree with AimRunStats");
  };
  agree("aim.validation", in.stats_validation_s);
  agree("aim.ranking", in.stats_ranking_s);

  const double whatif_s = f.Self("whatif.plan");
  const double whatif_calls = static_cast<double>(f.Count("whatif.plan"));
  const double lookups = in.cache_hits + in.cache_misses;
  const double tune_traced = Sum(in.traced_tune_s);
  const double executed = f.Attr("executor.execute", "rows_sent");
  const double tenant_s = f.Total("fleet.tenant");
  const double interval_s = f.Total("fleet.interval");
  return {
      // Parsing happens mostly in set-up, so sql.* are totals over the
      // traced set-up and the traced rounds.
      {"sql.parse_s", f.Self("sql.parse"), "s"},
      {"sql.parse_calls", static_cast<double>(f.Count("sql.parse")),
       "count"},
      {"catalog.index_slots", per(in.index_slots), "count"},
      {"catalog.live_indexes", per(in.live_indexes), "count"},
      {"optimizer.whatif_calls", per(whatif_calls), "count"},
      {"optimizer.whatif_plan_s", per(whatif_s), "s"},
      {"optimizer.whatif_plan_us", ratio(whatif_s * 1e6, whatif_calls), "us"},
      {"optimizer.cache_lookups", per(lookups), "count"},
      {"optimizer.cache_hit_rate", ratio(in.cache_hits, lookups), "ratio"},
      {"core.selection_s", per(f.Self("aim.selection")), "s"},
      {"core.candgen_s", per(f.Self("aim.candgen")), "s"},
      {"core.merge_s", per(f.Self("aim.merge")), "s"},
      {"core.ranking_s", per(f.Self("aim.ranking")), "s"},
      {"core.knapsack_s", per(f.Self("aim.knapsack")), "s"},
      {"core.validation_s", per(f.Self("aim.validation")), "s"},
      {"core.apply_s", per(f.Self("aim.apply")), "s"},
      {"core.partial_orders", per(in.partial_orders), "count"},
      {"core.partial_orders_merged", per(in.partial_orders_merged), "count"},
      {"core.candidates_evaluated", per(in.candidates_evaluated), "count"},
      {"core.tick_self_s", per(f.Self("tuner.tick")), "s"},
      {"core.fleet_interval_self_s", per(f.Self("fleet.interval")), "s"},
      {"core.fleet_tenant_s", per(tenant_s), "s"},
      {"core.fleet_parallel_efficiency",
       ratio(tenant_s, interval_s * in.fleet_pool_threads), "ratio"},
      {"storage.clone_copy_s", per(f.Total("bench.clone_copy")), "s"},
      {"storage.index_build_s", per(in.index_build_s), "s"},
      {"storage.index_build_rows_per_s",
       ratio(in.index_build_rows, in.index_build_s), "1/s"},
      {"storage.snapshot_copy_s", per(f.Total("bench.snapshot_copy")), "s"},
      {"storage.online_snapshot_s", per(f.Self("online.snapshot")), "s"},
      {"storage.online_catchup_s", per(f.Self("online.catchup")), "s"},
      {"storage.online_swap_s", per(f.Self("online.swap")), "s"},
      {"storage.online_delta_applied", per(in.online_delta_applied),
       "count"},
      {"storage.rows_at_end", in.rows_at_end, "count"},
      {"executor.execute_s", per(f.Self("executor.execute")), "s"},
      {"executor.op.scan_s", per(f.Self("executor.op.scan")), "s"},
      {"executor.op.filter_s", per(f.Self("executor.op.filter")), "s"},
      {"executor.op.join_s", per(f.Self("executor.op.join")), "s"},
      {"executor.op.aggregate_s", per(f.Self("executor.op.aggregate")), "s"},
      {"executor.rows_examined",
       per(f.Attr("executor.execute", "rows_examined")), "count"},
      {"executor.index_entries_read",
       per(f.Attr("executor.execute", "index_entries_read")), "count"},
      {"executor.rows_examined_per_row",
       ratio(f.Attr("executor.execute", "rows_examined"), executed), "ratio"},
      {"workload.oltp_attempted", in.oltp_attempted, "count"},
      {"workload.generator_late_p99_ms", in.generator_late_p99_ms, "ms"},
      {"advisors.whatif_share", ratio(whatif_s, tune_traced), "ratio"},
      {"obs.trace_overhead_s", Median(in.trace_overhead_s), "s"},
      {"obs.spans", per(static_cast<double>(f.spans)), "count"},
  };
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"tune_s", e.tune_s, "s"},
      {"exec_s", e.exec_s, "s"},
      {"est_cost_ratio", e.est_cost_ratio, "ratio"},
      {"oltp_p50_ms", e.oltp_p50_ms, "ms"},
      {"oltp_p99_ms", e.oltp_p99_ms, "ms"},
      {"tick_worst_txn_ms", e.tick_worst_txn_ms, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

void StatementLatencies::AddPass(size_t first, const std::vector<double>& ms) {
  if (samples_.size() < first + ms.size()) samples_.resize(first + ms.size());
  for (size_t i = 0; i < ms.size(); ++i) samples_[first + i].push_back(ms[i]);
}

void StatementLatencies::Fill(EndToEnd* e) const {
  std::vector<double> medians;
  for (const std::vector<double>& s : samples_) {
    if (!s.empty()) medians.push_back(Median(s));
  }
  e->oltp_p50_ms = Percentile(medians, 50);
  e->oltp_p99_ms = Percentile(medians, 99);
  e->tick_worst_txn_ms = Percentile(medians, 100);
}

std::vector<Metric> RoundMetrics(const Args& args, const obs::Tracer& tracer,
                                 const Rounds& r, Tally* tally) {
  if (args.trace) return LayerMetrics(tracer, r.layer, tally);
  EndToEnd e;
  e.setup_s = Median(r.setup_s);
  e.tune_s = Median(r.tune_s);
  e.exec_s = Median(r.exec_s);
  e.est_cost_ratio = Median(r.cost_ratio);
  r.latencies.Fill(&e);
  return EndToEndMetrics(e);
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace aim::perfbench
