// fleet_interval: 120 tenants in 6 schema families. Each round registers
// fresh copies of every tenant database with a new FleetTuner and runs one
// RunInterval on its shared pool, then runs every tenant's workload once on
// its tuned database.
#include <algorithm>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/fleet.h"
#include "workload/tenants.h"

namespace aim::perfbench {
namespace {

constexpr int kTenants = 120;
constexpr int kFamilies = 6;
constexpr double kScale = 0.3;
constexpr int kQueriesPerTenant = 6;
constexpr int kTimedPasses = 3;
constexpr double kTenantBudgetBytes = 1024.0 * 1024 * 1024;
/// The fleet's schemas, data and workloads come from one fixed generator
/// seed: another generator seed redraws the six family schemas and moves
/// the fleet's total work by tens of percent. The benchmark seed varies
/// the order tenants register in, which decides the tenant that fills each
/// family's shared what-if cache first.
constexpr uint64_t kFleetSeed = 42;

int PoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(2, std::min(4, hw));
}

/// One timed set-up: generates the fleet into `fleet`, in the
/// registration order drawn from `seed`, and records its wall time.
bool TimedSetup(uint64_t seed, std::vector<workload::GeneratedTenant>* fleet,
                Rounds* r) {
  workload::TenantFleetOptions gen;
  gen.tenants = kTenants;
  gen.families = kFamilies;
  gen.seed = kFleetSeed;
  gen.scale = kScale;
  gen.queries_per_tenant = kQueriesPerTenant;
  const auto t0 = Clock::now();
  Result<std::vector<workload::GeneratedTenant>> generated =
      workload::GenerateTenantFleet(gen);
  if (!generated.ok()) return false;
  *fleet = generated.MoveValue();
  Rng rng(seed);
  rng.Shuffle(fleet);
  r->setup_s.push_back(Since(t0));
  return true;
}

}  // namespace

std::vector<Metric> RunFleetInterval(const Args& args, Tally* tally) {
  std::vector<workload::GeneratedTenant> fleet;
  obs::Tracer tracer;
  Rounds r;
  LayerInputs& layer = r.layer;
  {
    // The first set-up keeps its fleet; a traced run traces it.
    TraceScope scope(args.trace ? &tracer : nullptr);
    if (!tally->Op(TimedSetup(args.seed, &fleet, &r), "fleet setup")) {
      return {};
    }
  }

  // Unindexed reference rows and estimated costs, per tenant.
  std::vector<std::vector<std::multiset<std::string>>> reference(
      fleet.size());
  double unindexed_cost = 0;
  for (size_t t = 0; t < fleet.size(); ++t) {
    storage::Database unindexed = UnindexedCopy(fleet[t].db);
    tally->Op(ReferenceResults(&unindexed, fleet[t].workload, &reference[t]),
              "unindexed reference");
    Result<double> cost = EstimatedCost(fleet[t].db.catalog(),
                                        fleet[t].workload, /*unindexed=*/true);
    if (!tally->Op(cost.ok(), "unindexed cost")) return {};
    unindexed_cost += cost.ValueOrDie();
  }

  const int threads = PoolThreads();
  const auto start = Clock::now();
  for (int round = 0; MoreRounds(args, round, start); ++round) {
    {
      // The set-up again, untraced, into a fleet that is thrown away.
      std::vector<workload::GeneratedTenant> again;
      tally->Op(TimedSetup(args.seed, &again, &r), "fleet setup");
    }
    const bool traced = RoundTraced(args, round);
    std::vector<storage::Database> dbs;
    Result<core::FleetIntervalReport> report = Status::Internal("not run");
    {
      TraceScope scope(traced ? &tracer : nullptr);
      {
        obs::Span copy(obs::Tracer::Get(), "bench.clone_copy");
        dbs.reserve(fleet.size());
        for (const workload::GeneratedTenant& t : fleet) dbs.push_back(t.db);
      }
      core::FleetTunerOptions options;
      options.num_threads = threads;
      options.tuner.aim.ranking.storage_budget_bytes = kTenantBudgetBytes;
      core::FleetTuner tuner(options);
      for (size_t t = 0; t < fleet.size(); ++t) {
        tuner.AddTenant(fleet[t].name, &dbs[t], &fleet[t].workload);
      }
      const auto t0 = Clock::now();
      {
        obs::Span tune(obs::Tracer::Get(), "bench.tune");
        report = tuner.RunInterval();
      }
      const double pass_s = Since(t0);
      if (!tally->Op(report.ok(), "RunInterval")) continue;
      r.tune_s.push_back(pass_s);
      layer.AddRoundTune(traced, pass_s);
      for (size_t t = 0; t < fleet.size(); ++t) {
        ExecutePass(&dbs[t], fleet[t].workload, nullptr, "warm-up", tally,
                    nullptr);
      }
      for (int p = 0; p < kTimedPasses; ++p) {
        double pass_exec_s = 0;
        size_t first = 0;
        for (size_t t = 0; t < fleet.size(); ++t) {
          std::vector<double> ms;
          pass_exec_s += ExecutePass(&dbs[t], fleet[t].workload, &reference[t],
                                     fleet[t].name, tally, &ms);
          r.latencies.AddPass(first, ms);
          first += ms.size();
        }
        r.exec_s.push_back(pass_exec_s);
      }
    }

    const core::FleetIntervalReport& rep = report.ValueOrDie();
    tally->Check(rep.outcomes.size() == fleet.size(),
                 "every tenant has an outcome");
    double tuned_cost = 0;
    for (size_t t = 0; t < rep.outcomes.size(); ++t) {
      const core::TenantOutcome& o = rep.outcomes[t];
      tally->Op(o.tuned && !o.report.degraded, "tenant tick " + o.tenant);
      for (catalog::IndexId id : SecondaryIndexes(dbs[t])) {
        tally->Check(IndexMatchesHeap(dbs[t], id), "built index matches heap");
      }
      double bytes = 0;
      for (const core::CandidateIndex& c : o.report.aim.recommended) {
        bytes += dbs[t].catalog().IndexSizeBytes(c.def);
      }
      tally->Check(bytes <= kTenantBudgetBytes,
                   "recommended set fits the tenant budget");
      Result<double> cost = EstimatedCost(dbs[t].catalog(), fleet[t].workload,
                                          /*unindexed=*/false);
      if (tally->Op(cost.ok(), "tuned cost")) tuned_cost += cost.ValueOrDie();
    }
    const double ratio = tuned_cost / unindexed_cost;
    tally->Check(ratio <= 1.0 + 1e-9, "est_cost_ratio <= 1");
    r.cost_ratio.push_back(ratio);

    if (traced) {
      layer.traced_rounds += 1;
      for (size_t t = 0; t < rep.outcomes.size(); ++t) {
        layer.AddAimStats(rep.outcomes[t].report.aim.stats);
        layer.index_slots += CatalogIndexSlots(dbs[t].catalog());
        layer.live_indexes += CatalogLiveIndexes(dbs[t].catalog());
        std::vector<catalog::IndexDef> defs;
        for (const core::CandidateIndex& c :
             rep.outcomes[t].report.aim.recommended) {
          defs.push_back(c.def);
        }
        MeasureIndexBuild(fleet[t].db, defs, tally, &layer);
      }
      double rows = 0;
      for (const storage::Database& db : dbs) rows += LiveRows(db);
      layer.rows_at_end = rows;
      layer.fleet_pool_threads = threads;
    }
  }

  return RoundMetrics(args, tracer, r, tally);
}

}  // namespace aim::perfbench
