// The two TPC-H workloads.
//
// tpch_bootstrap: one full AutomaticIndexManager::RunOnce per round
// (recommend, clone-validate, apply; serial) on a fresh copy of a TPC-H
// slice whose statistics report SF 10, then the stream workload once on
// the tuned database.
//
// tpch_extend: the Extend advisor on the same catalog at one storage
// budget, with a time limit it never reaches, then the stream workload on
// a copy of the slice with Extend's indexes built.
#include <algorithm>
#include <cmath>
#include <string>

#include "advisors/extend.h"
#include "bench.h"
#include "common/rng.h"
#include "core/aim.h"
#include "workload/tpch.h"

namespace aim::perfbench {
namespace {

constexpr double kMaterializedSf = 0.002;
constexpr double kStatsSf = 10.0;
constexpr int kStreams = 6;
constexpr int kTimedPasses = 3;
/// The slice's data comes from one fixed generator seed. At SF 0.002 the
/// data seed decides the join sizes: over data seeds 1-5, one pass of the
/// streams on Extend's configuration examined 3.5 to 7.0 million rows.
/// The benchmark seed orders the streams.
constexpr uint64_t kDataSeed = 42;
constexpr double kBudgetBytes = 4.0 * 1024 * 1024 * 1024;
constexpr double kAimBudgetBytes = 15.0 * 1024 * 1024 * 1024;
constexpr double kExtendTimeLimitS = 120.0;
constexpr size_t kExtendMaxWidth = 4;

/// The generated inputs: the slice, the 22 templates, and the stream
/// workload (each stream is the templates in an order drawn from `seed`).
struct TpchInputs {
  storage::Database db;
  workload::Workload templates;
  workload::Workload streams;
  std::vector<size_t> template_of;  // stream statement -> template
};

Status BuildInputs(uint64_t seed, TpchInputs* in) {
  in->db = storage::Database();
  workload::TpchOptions options;
  options.materialized_sf = kMaterializedSf;
  options.stats_sf = kStatsSf;
  options.seed = kDataSeed;
  AIM_RETURN_NOT_OK(workload::BuildTpch(&in->db, options));
  AIM_ASSIGN_OR_RETURN(in->templates, workload::TpchQueries());
  in->streams = workload::Workload();
  in->template_of.clear();
  Rng rng(seed);
  for (int s = 0; s < kStreams; ++s) {
    std::vector<size_t> order(in->templates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    for (size_t t : order) {
      in->streams.queries.push_back(in->templates.queries[t]);
      in->template_of.push_back(t);
    }
  }
  return Status::OK();
}

/// One timed set-up: builds the inputs into `in` and records the build's
/// wall time.
bool TimedSetup(uint64_t seed, TpchInputs* in, Rounds* r) {
  const auto t0 = Clock::now();
  if (!BuildInputs(seed, in).ok()) return false;
  r->setup_s.push_back(Since(t0));
  return true;
}

/// The first set-up, which keeps its inputs; a traced run traces it.
bool FirstSetup(const Args& args, obs::Tracer* tracer, TpchInputs* in,
                Rounds* r) {
  TraceScope scope(args.trace ? tracer : nullptr);
  return TimedSetup(args.seed, in, r);
}

/// The set-up again at the start of a round, untraced, into inputs that
/// are thrown away.
void RoundSetup(const Args& args, Tally* tally, Rounds* r) {
  TpchInputs again;
  tally->Op(TimedSetup(args.seed, &again, r), "tpch setup");
}

/// Reference rows of every stream statement, from the unindexed slice.
bool StreamReference(const TpchInputs& in,
                     std::vector<std::multiset<std::string>>* out) {
  storage::Database unindexed = UnindexedCopy(in.db);
  std::vector<std::multiset<std::string>> per_template;
  if (!ReferenceResults(&unindexed, in.templates, &per_template)) {
    return false;
  }
  out->clear();
  for (size_t t : in.template_of) out->push_back(per_template[t]);
  return true;
}

double DefsSizeBytes(const std::vector<catalog::IndexDef>& defs,
                     const catalog::Catalog& catalog) {
  double bytes = 0;
  for (const catalog::IndexDef& d : defs) bytes += catalog.IndexSizeBytes(d);
  return bytes;
}

/// The exec part of a round: a warm-up pass, then timed passes checked
/// against the unindexed reference.
void ExecRound(storage::Database* db, const TpchInputs& in,
               const std::vector<std::multiset<std::string>>& reference,
               Tally* tally, Rounds* rounds) {
  ExecutePass(db, in.streams, nullptr, "warm-up", tally, nullptr);
  for (int p = 0; p < kTimedPasses; ++p) {
    std::vector<double> ms;
    rounds->exec_s.push_back(
        ExecutePass(db, in.streams, &reference, "exec", tally, &ms));
    rounds->latencies.AddPass(0, ms);
  }
}

}  // namespace

std::vector<Metric> RunTpchBootstrap(const Args& args, Tally* tally) {
  obs::Tracer tracer;
  TpchInputs in;
  Rounds r;
  if (!tally->Op(FirstSetup(args, &tracer, &in, &r), "tpch setup")) return {};
  std::vector<std::multiset<std::string>> reference;
  tally->Op(StreamReference(in, &reference), "unindexed reference");
  Result<double> unindexed_cost = EstimatedCost(in.db.catalog(), in.streams,
                                                /*unindexed=*/true);
  if (!tally->Op(unindexed_cost.ok(), "unindexed cost")) return {};

  const auto start = Clock::now();
  for (int round = 0; MoreRounds(args, round, start); ++round) {
    RoundSetup(args, tally, &r);
    const bool traced = RoundTraced(args, round);
    storage::Database db;
    Result<core::AimReport> report = Status::Internal("not run");
    {
      TraceScope scope(traced ? &tracer : nullptr);
      {
        obs::Span copy(obs::Tracer::Get(), "bench.clone_copy");
        db = in.db;
      }
      core::AimOptions options;
      options.num_threads = 1;
      options.ranking.storage_budget_bytes = kAimBudgetBytes;
      core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
      const auto t0 = Clock::now();
      {
        obs::Span tune(obs::Tracer::Get(), "bench.tune");
        report = aim.RunOnce(in.streams, nullptr);
      }
      const double tune_s = Since(t0);
      if (!tally->Op(report.ok(), "RunOnce")) continue;
      r.tune_s.push_back(tune_s);
      r.layer.AddRoundTune(traced, tune_s);
      ExecRound(&db, in, reference, tally, &r);
    }
    const core::AimReport& rep = report.ValueOrDie();
    for (catalog::IndexId id : SecondaryIndexes(db)) {
      tally->Check(IndexMatchesHeap(db, id), "built index matches heap");
    }
    std::vector<catalog::IndexDef> recommended;
    for (const core::CandidateIndex& c : rep.recommended) {
      recommended.push_back(c.def);
    }
    tally->Check(DefsSizeBytes(recommended, db.catalog()) <= kAimBudgetBytes,
                 "recommended set fits the budget");
    Result<double> tuned_cost =
        EstimatedCost(db.catalog(), in.streams, /*unindexed=*/false);
    if (tally->Op(tuned_cost.ok(), "tuned cost")) {
      const double ratio = tuned_cost.ValueOrDie() / unindexed_cost.ValueOrDie();
      tally->Check(ratio <= 1.0 + 1e-9, "est_cost_ratio <= 1");
      r.cost_ratio.push_back(ratio);
    }
    if (traced) {
      LayerInputs& l = r.layer;
      l.traced_rounds += 1;
      l.AddAimStats(rep.stats);
      l.index_slots += CatalogIndexSlots(db.catalog());
      l.live_indexes += CatalogLiveIndexes(db.catalog());
      MeasureIndexBuild(in.db, recommended, tally, &l);
      l.rows_at_end = static_cast<double>(LiveRows(db));
    }
  }
  return RoundMetrics(args, tracer, r, tally);
}

std::vector<Metric> RunTpchExtend(const Args& args, Tally* tally) {
  obs::Tracer tracer;
  TpchInputs in;
  Rounds r;
  if (!tally->Op(FirstSetup(args, &tracer, &in, &r), "tpch setup")) return {};
  std::vector<std::multiset<std::string>> reference;
  tally->Op(StreamReference(in, &reference), "unindexed reference");
  Result<double> unindexed_cost = EstimatedCost(in.db.catalog(), in.templates,
                                                /*unindexed=*/true);
  if (!tally->Op(unindexed_cost.ok(), "unindexed cost")) return {};

  advisors::AdvisorOptions options;
  options.storage_budget_bytes = kBudgetBytes;
  options.max_index_width = kExtendMaxWidth;
  options.time_limit_seconds = kExtendTimeLimitS;

  const auto start = Clock::now();
  for (int round = 0; MoreRounds(args, round, start); ++round) {
    RoundSetup(args, tally, &r);
    const bool traced = RoundTraced(args, round);
    optimizer::WhatIfOptimizer what_if(in.db.catalog(),
                                       optimizer::CostModel());
    Result<advisors::AdvisorResult> result = Status::Internal("not run");
    storage::Database db;
    {
      TraceScope scope(traced ? &tracer : nullptr);
      advisors::ExtendAdvisor extend;
      const auto t0 = Clock::now();
      {
        obs::Span tune(obs::Tracer::Get(), "bench.tune");
        result = extend.Recommend(in.templates, &what_if, options);
      }
      const double tune_s = Since(t0);
      if (!tally->Op(result.ok(), "Extend Recommend")) continue;
      r.tune_s.push_back(tune_s);
      r.layer.AddRoundTune(traced, tune_s);
    }
    const advisors::AdvisorResult& rec = result.ValueOrDie();
    tally->Check(rec.runtime_seconds < kExtendTimeLimitS,
                 "Extend finished before its time limit");
    tally->Check(DefsSizeBytes(rec.indexes, in.db.catalog()) <= kBudgetBytes,
                 "recommended set fits the budget");
    // Recompute the final cost with a fresh optimizer.
    optimizer::WhatIfOptimizer fresh(in.db.catalog(), optimizer::CostModel());
    Result<double> final_cost = Status::Internal("not run");
    if (tally->Op(fresh.SetConfiguration(rec.indexes).ok(),
                  "configure recomputation")) {
      final_cost = fresh.WorkloadCost(in.templates.statements(),
                                      in.templates.weights());
    }
    if (tally->Op(final_cost.ok(), "recompute final cost")) {
      const double cost = final_cost.ValueOrDie();
      tally->Check(std::fabs(cost - rec.final_workload_cost) <=
                       1e-9 * std::max(1.0, std::fabs(cost)),
                   "reported final cost equals the recomputation");
      const double ratio = cost / unindexed_cost.ValueOrDie();
      tally->Check(ratio <= 1.0 + 1e-9, "est_cost_ratio <= 1");
      r.cost_ratio.push_back(ratio);
    }
    // Build Extend's configuration on a copy of the slice and run the
    // streams on it; the build is outside every timed metric.
    db = in.db;
    for (const Result<catalog::IndexId>& id :
         db.CreateIndexes(RealIndexDefs(rec.indexes))) {
      tally->Op(id.ok(), "build recommended index");
    }
    for (catalog::IndexId id : SecondaryIndexes(db)) {
      tally->Check(IndexMatchesHeap(db, id), "built index matches heap");
    }
    {
      TraceScope scope(traced ? &tracer : nullptr);
      ExecRound(&db, in, reference, tally, &r);
    }
    if (traced) {
      LayerInputs& l = r.layer;
      l.traced_rounds += 1;
      l.index_slots += CatalogIndexSlots(what_if.catalog());
      l.live_indexes += CatalogLiveIndexes(what_if.catalog());
      l.rows_at_end = static_cast<double>(LiveRows(db));
    }
  }
  return RoundMetrics(args, tracer, r, tally);
}

}  // namespace aim::perfbench
