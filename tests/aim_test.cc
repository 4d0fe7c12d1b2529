#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/aim.h"
#include "core/continuous.h"
#include "executor/executor.h"
#include "tests/test_util.h"

namespace aim::core {
namespace {

using aim::testing::IntervalSignature;
using aim::testing::MakeOrdersDb;
using aim::testing::MakeUsersDb;

workload::Workload SimpleWorkload() {
  workload::Workload w;
  EXPECT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  EXPECT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            50.0)
          .ok());
  EXPECT_TRUE(
      w.Add("SELECT id FROM users ORDER BY created_at DESC LIMIT 10",
            30.0)
          .ok());
  return w;
}

TEST(AimTest, BootstrapRecommendsUsefulIndexes) {
  storage::Database db = MakeUsersDb(5000);
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AimReport& report = r.ValueOrDie();
  ASSERT_FALSE(report.recommended.empty());
  // An index on org_id must be among the picks.
  bool has_org = false;
  for (const auto& c : report.recommended) {
    if (!c.def.columns.empty() && c.def.columns[0] == 1) has_org = true;
  }
  EXPECT_TRUE(has_org);
  EXPECT_EQ(report.explanations.size(), report.recommended.size());
  EXPECT_GT(report.stats.what_if_calls, 0u);
  EXPECT_GT(report.stats.partial_orders_generated, 0u);
}

TEST(AimTest, RecommendRespectsBudget) {
  storage::Database db = MakeUsersDb(5000);
  AimOptions options;
  options.validate_on_clone = false;
  options.ranking.storage_budget_bytes = 1.0;  // nothing fits
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, RunOnceMaterializesIndexes) {
  storage::Database db = MakeUsersDb(3000);
  AimOptions options;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto indexes = db.catalog().AllIndexes(false, false);
  EXPECT_EQ(indexes.size(), r.ValueOrDie().recommended.size());
  for (const auto* idx : indexes) {
    EXPECT_TRUE(idx->created_by_automation);
    EXPECT_NE(db.btree(idx->id), nullptr);  // actually materialized
  }
}

TEST(AimTest, RunOnceImprovesObservedCpu) {
  storage::Database db = MakeUsersDb(5000);
  workload::Workload w = SimpleWorkload();
  executor::Executor exec(&db, optimizer::CostModel());
  double before = 0;
  for (const auto& q : w.queries) {
    before += exec.Execute(q.stmt).ValueOrDie().metrics.cpu_seconds;
  }
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  ASSERT_TRUE(aim.RunOnce(w, nullptr).ok());
  double after = 0;
  for (const auto& q : w.queries) {
    after += exec.Execute(q.stmt).ValueOrDie().metrics.cpu_seconds;
  }
  EXPECT_LT(after, before * 0.5);
}

TEST(AimTest, NoRegressionGuaranteeOnClone) {
  storage::Database db = MakeUsersDb(3000);
  workload::Workload w = SimpleWorkload();
  AimOptions options;  // validation on
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok());
  for (const auto& v : r.ValueOrDie().validation.per_query) {
    EXPECT_FALSE(v.regressed);
  }
  EXPECT_TRUE(r.ValueOrDie().validation.no_regressions);
  EXPECT_TRUE(r.ValueOrDie().validation.any_query_improved);
}

TEST(AimTest, ValidationDropsUnusedIndexes) {
  storage::Database db = MakeUsersDb(2000);
  workload::Workload w = SimpleWorkload();

  // Inject a bogus candidate by running validation directly.
  CandidateIndex good;
  good.def.table = 0;
  good.def.columns = {1};  // org_id: used
  good.benefit = 1.0;
  CandidateIndex useless;
  useless.def.table = 0;
  useless.def.columns = {6};  // payload: never filtered
  useless.benefit = 1.0;

  std::vector<SelectedQuery> selected;
  for (const auto& q : w.queries) {
    SelectedQuery sq;
    sq.query = &q;
    selected.push_back(sq);
  }
  Result<CloneValidationResult> r = ValidateOnClone(
      db, {good, useless}, selected, optimizer::CostModel(), {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().accepted.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().accepted[0].def.columns[0], 1u);
  ASSERT_EQ(r.ValueOrDie().rejected_unused.size(), 1u);
}

TEST(AimTest, CloneValidationLeavesProductionUntouched) {
  storage::Database db = MakeUsersDb(1000);
  workload::Workload w = SimpleWorkload();
  CandidateIndex c;
  c.def.table = 0;
  c.def.columns = {1};
  std::vector<SelectedQuery> selected;
  for (const auto& q : w.queries) {
    SelectedQuery sq;
    sq.query = &q;
    selected.push_back(sq);
  }
  ASSERT_TRUE(
      ValidateOnClone(db, {c}, selected, optimizer::CostModel(), {}).ok());
  EXPECT_TRUE(db.catalog().AllIndexes(true, false).empty());
}

TEST(AimTest, SkipsExistingIndexes) {
  storage::Database db = MakeUsersDb(3000);
  catalog::IndexDef existing;
  existing.table = 0;
  existing.columns = {1};
  ASSERT_TRUE(db.CreateIndex(existing).ok());
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 10.0).ok());
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  for (const auto& c : r.ValueOrDie().recommended) {
    EXPECT_NE(c.def.columns, existing.columns);
  }
}

TEST(AimTest, EmptyWorkloadNoop) {
  storage::Database db = MakeUsersDb(100);
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  workload::Workload w;
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, MonitorDrivenSelection) {
  storage::Database db = MakeUsersDb(3000);
  workload::Workload w = SimpleWorkload();
  // Execute the workload to populate the monitor with real stats.
  workload::WorkloadMonitor monitor;
  executor::Executor exec(&db, optimizer::CostModel());
  for (int rep = 0; rep < 50; ++rep) {
    for (const auto& q : w.queries) {
      auto res = exec.Execute(q.stmt);
      ASSERT_TRUE(res.ok());
      monitor.RecordKeyed(q.fingerprint, q.normalized_sql,
                          res.ValueOrDie().metrics);
    }
  }
  AimOptions options;
  options.validate_on_clone = false;
  options.selection.min_benefit_cores = 1e-9;
  options.selection.min_executions = 2;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.Recommend(w, &monitor);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.ValueOrDie().stats.queries_selected, 0u);
  EXPECT_FALSE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, JoinWorkloadGetsJoinSupportingIndexes) {
  storage::Database db = MakeOrdersDb(500, 5000);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT users.id FROM users, orders WHERE "
                    "users.id = orders.user_id AND users.org_id = 3",
                    100.0)
                  .ok());
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  // orders(user_id) must be recommended to support the join.
  bool has_orders_user_id = false;
  for (const auto& c : r.ValueOrDie().recommended) {
    if (c.def.table == 1 && !c.def.columns.empty() &&
        c.def.columns[0] == 1) {
      has_orders_user_id = true;
    }
  }
  EXPECT_TRUE(has_orders_user_id);
}

// ---------- continuous tuning ------------------------------------------------

TEST(ContinuousTest, DropsUnusedAutomationIndexes) {
  storage::Database db = MakeUsersDb(2000);
  catalog::IndexDef stale;
  stale.table = 0;
  stale.columns = {6};  // payload: no query uses it
  stale.created_by_automation = true;
  ASSERT_TRUE(db.CreateIndex(stale).ok());

  ContinuousTunerOptions options;
  options.drop_after_idle_intervals = 2;
  options.aim.validate_on_clone = false;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());

  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  EXPECT_EQ(db.catalog().TableIndexes(0, false).size() >= 1, true);
  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok());
  // The payload index must be gone by now.
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    EXPECT_NE(idx->columns, stale.columns);
  }
}

TEST(ContinuousTest, ManualIndexesNeverDropped) {
  storage::Database db = MakeUsersDb(500);
  catalog::IndexDef manual;
  manual.table = 0;
  manual.columns = {6};
  manual.created_by_automation = false;  // DBA-created
  ASSERT_TRUE(db.CreateIndex(manual).ok());
  ContinuousTunerOptions options;
  options.drop_after_idle_intervals = 1;
  options.aim.validate_on_clone = false;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  bool found = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (idx->columns == manual.columns) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ContinuousTest, ShrinksPartiallyUsedIndex) {
  storage::Database db = MakeUsersDb(3000);
  catalog::IndexDef wide;
  wide.table = 0;
  wide.columns = {1, 2, 6};  // (org_id, status, payload)
  wide.created_by_automation = true;
  ASSERT_TRUE(db.CreateIndex(wide).ok());

  ContinuousTunerOptions options;
  options.shrink_after_idle_intervals = 2;
  options.drop_after_idle_intervals = 100;  // don't drop
  options.aim.validate_on_clone = false;
  options.aim.ranking.storage_budget_bytes = 1.0;  // AIM adds nothing new
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  // Only org_id is filtered: the used prefix is 1 of 3 columns.
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());
  bool shrunk = false;
  for (int i = 0; i < 5 && !shrunk; ++i) {
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok());
    shrunk = !r.ValueOrDie().shrunk.empty();
  }
  EXPECT_TRUE(shrunk);
  bool narrow_exists = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (idx->columns == std::vector<catalog::ColumnId>{1}) {
      narrow_exists = true;
    }
    EXPECT_NE(idx->columns, wide.columns);
  }
  EXPECT_TRUE(narrow_exists);
}

TEST(ContinuousTest, AdaptsToWorkloadShift) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;
  options.aim.validate_on_clone = false;
  options.drop_after_idle_intervals = 2;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  workload::Workload w1;
  ASSERT_TRUE(w1.Add("SELECT id FROM users WHERE org_id = 1", 100.0).ok());
  ASSERT_TRUE(tuner.Tick(w1, nullptr).ok());
  bool has_org = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->columns.empty() && idx->columns[0] == 1) has_org = true;
  }
  ASSERT_TRUE(has_org);

  // Workload shifts to created_at lookups; org index should eventually
  // be dropped and a created_at index added.
  workload::Workload w2;
  ASSERT_TRUE(
      w2.Add("SELECT id FROM users WHERE created_at = 55", 100.0).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tuner.Tick(w2, nullptr).ok());
  bool has_created = false;
  bool still_org = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->columns.empty() && idx->columns[0] == 4) has_created = true;
    if (!idx->columns.empty() && idx->columns[0] == 1) still_org = true;
  }
  EXPECT_TRUE(has_created);
  EXPECT_FALSE(still_org);
}

// ---------------------------------------------------------------------------
// Cross-interval what-if cache carry

TEST(ContinuousTest, SecondIntervalWarmStartsFromCarriedCache) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;  // carry_what_if_cache defaults on
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  const workload::Workload w = SimpleWorkload();

  Result<IntervalReport> first = tuner.Tick(w, nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_FALSE(first.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(first.ValueOrDie().aim.stats.cache_misses, 0u);

  // Interval 2 starts warm but costs everything under the configuration
  // interval 1 *installed* — a fingerprint interval 1 never costed, so
  // the carried entries are unreachable (stale-proof by construction).
  Result<IntervalReport> second = tuner.Tick(w, nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_TRUE(second.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(second.ValueOrDie().aim.stats.cache_entries_at_start, 0u);

  // Interval 3 runs at the now-stable configuration interval 2 also ran
  // at: interval 2's entries answer interval 3's costing directly.
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GT(third.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_TRUE(third.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(third.ValueOrDie().aim.stats.cache_hits, 0u);
}

TEST(ContinuousTest, CacheInvalidatedWhenStatisticsDrift) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  const workload::Workload w = SimpleWorkload();

  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  // Re-analyze with a different histogram resolution: same data, new
  // statistics — every carried cost is now computed against a stale
  // cost-model input and must be dropped, not reused.
  db.AnalyzeAll(/*histogram_buckets=*/8);
  Result<IntervalReport> second = tuner.Tick(w, nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.ValueOrDie().cache_invalidated);
  EXPECT_EQ(second.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_FALSE(second.ValueOrDie().aim.stats.cache_warm_start);

  // Stable statistics afterwards: the carry resumes.
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.ValueOrDie().cache_invalidated);
  EXPECT_GT(third.ValueOrDie().cache_entries_carried, 0u);
}

TEST(ContinuousTest, CacheSnapshotWarmStartsAcrossTunerInstances) {
  const std::string path =
      ::testing::TempDir() + "/tuner_whatif_cache.bin";
  const storage::Database base = MakeUsersDb(3000);
  const workload::Workload w = SimpleWorkload();
  // The actual file is namespaced by the schema/statistics fingerprint
  // (so fleets of tuners sharing one configured path never collide).
  const std::string real_path = optimizer::SnapshotPathForFingerprint(
      path, base.catalog().SchemaStatsFingerprint());
  std::remove(real_path.c_str());

  ContinuousTunerOptions options;
  options.cache_snapshot_path = path;
  {
    storage::Database db = base;
    ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Nothing to load on the very first interval ever.
    EXPECT_FALSE(r.ValueOrDie().cache_loaded_from_snapshot);
  }
  {
    // A brand-new tuner process on the same database state: interval 1
    // starts warm from the snapshot the previous instance saved.
    storage::Database db = base;
    ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().cache_loaded_from_snapshot);
    EXPECT_GT(r.ValueOrDie().cache_entries_carried, 0u);
    EXPECT_TRUE(r.ValueOrDie().aim.stats.cache_warm_start);
    EXPECT_GT(r.ValueOrDie().aim.stats.cache_hits, 0u);
  }
  {
    // Corrupt the snapshot: the next instance must start cold — same
    // decisions, no error, no degraded interval.
    std::ofstream out(real_path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
    out.close();
    storage::Database db = base;
    ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().cache_loaded_from_snapshot);
    EXPECT_FALSE(r.ValueOrDie().degraded);
    EXPECT_EQ(r.ValueOrDie().cache_entries_carried, 0u);
  }
}

// ---------------------------------------------------------------------------
// TuningContext: lent resources never change a decision

struct ContextRun {
  std::string transcript;
  bool tuner_cache_null = false;
  bool tuner_candidate_cache_null = false;
  uint64_t what_if_hits = 0;
  uint64_t candidate_hits = 0;
};

/// One seeded drift schedule of six ContinuousTuner ticks at 2 threads: a
/// workload mix shift before tick 2 and a statistics refresh before tick
/// 4, both drawn from `seed`. With `lend`, the caller owns the pool and
/// both caches and hands them in through the TuningContext; as the
/// caches' owner it also clears the plan-cost cache when the schema/stats
/// fingerprint drifts, the rule the tuner applies to its own carried one.
ContextRun RunContextSchedule(uint64_t seed, bool lend) {
  storage::Database db = MakeUsersDb(3000);
  workload::Workload w = SimpleWorkload();
  ContinuousTunerOptions options;
  options.aim.num_threads = 2;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  common::ThreadPool pool(options.aim.num_threads);
  optimizer::WhatIfCache what_if_cache(options.aim.what_if_cache_entries);
  CandidateCache candidate_cache(options.candidate_cache_entries);
  TuningContext ctx;
  if (lend) {
    ctx.pool = &pool;
    ctx.what_if_cache = &what_if_cache;
    ctx.candidate_cache = &candidate_cache;
  }

  Rng rng(seed);
  uint64_t fingerprint = db.catalog().SchemaStatsFingerprint();
  ContextRun run;
  std::ostringstream transcript;
  for (int tick = 0; tick < 6; ++tick) {
    if (tick == 2) {
      // Mix shift: a new hot template, and the old leader cools down.
      EXPECT_TRUE(w.Add("SELECT email FROM users WHERE score = " +
                            std::to_string(rng.UniformRange(1, 900)),
                        static_cast<double>(rng.UniformRange(50, 200)))
                      .ok());
      w.queries.front().weight = 1.0;
    }
    if (tick == 4) {
      db.AnalyzeAll(static_cast<int>(rng.UniformRange(4, 16)));
    }
    if (db.catalog().SchemaStatsFingerprint() != fingerprint) {
      fingerprint = db.catalog().SchemaStatsFingerprint();
      what_if_cache.Clear();
    }
    Result<IntervalReport> r = tuner.Tick(w, nullptr, ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return run;
    transcript << "== tick " << tick << "\n"
               << IntervalSignature(r.ValueOrDie());
  }
  run.transcript = transcript.str();
  run.tuner_cache_null = tuner.cache() == nullptr;
  run.tuner_candidate_cache_null = tuner.candidate_cache() == nullptr;
  run.what_if_hits = what_if_cache.stats().hits;
  run.candidate_hits = candidate_cache.stats().hits;
  return run;
}

TEST(TuningContextTest, LentResourcesMatchPrivateOnes) {
  const ContextRun own = RunContextSchedule(/*seed=*/29, /*lend=*/false);
  const ContextRun lent = RunContextSchedule(/*seed=*/29, /*lend=*/true);
  EXPECT_EQ(own.transcript, lent.transcript);
  EXPECT_NE(own.transcript.find("applied"), std::string::npos);
  // The tuner carries its own caches only when none is lent.
  EXPECT_FALSE(own.tuner_cache_null);
  EXPECT_TRUE(lent.tuner_cache_null);
  EXPECT_TRUE(lent.tuner_candidate_cache_null);
  // The lent caches did the work the tuner's own would have done.
  EXPECT_EQ(own.what_if_hits, 0u);
  EXPECT_GT(lent.what_if_hits, 0u);
  EXPECT_GT(lent.candidate_hits, 0u);
}

}  // namespace
}  // namespace aim::core
