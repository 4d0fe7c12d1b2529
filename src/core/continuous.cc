#include "core/continuous.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <set>
#include <shared_mutex>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::core {

void ContinuousTuner::ObserveUsage(const workload::Workload& workload,
                                   const storage::Database& db) {
  // Fresh usage snapshot for this interval.
  std::map<catalog::IndexId, size_t> used_prefix;
  optimizer::Optimizer opt(db.catalog(), cm_);
  optimizer::OptimizeOptions options;
  options.include_hypothetical = false;
  for (const workload::Query& q : workload.queries) {
    Result<optimizer::AnalyzedQuery> aq =
        optimizer::Analyze(q.stmt, db.catalog());
    if (!aq.ok()) continue;
    optimizer::Plan plan = opt.OptimizeAnalyzed(aq.ValueOrDie(), options);
    for (const optimizer::JoinStep& step : plan.steps) {
      if (step.path.index == nullptr) continue;
      size_t& p = used_prefix[step.path.index->id];
      size_t used = step.path.eq_prefix_len +
                    (step.path.range_on_next ? 1 : 0);
      if (step.path.covering || step.path.delivers_group ||
          step.path.delivers_order) {
        // Key parts beyond the matching prefix still earn their keep when
        // the query reads them from the index (covering / ordered reads):
        // count up to the deepest referenced key part.
        const auto& refs =
            aq.ValueOrDie().instances[step.instance].referenced_columns;
        const auto& key = step.path.index->columns;
        for (size_t pos = 0; pos < key.size(); ++pos) {
          if (std::find(refs.begin(), refs.end(), key[pos]) != refs.end()) {
            used = std::max(used, pos + 1);
          }
        }
      }
      p = std::max(p, used);
    }
  }

  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    UsageState& state = usage_[idx->id];
    auto it = used_prefix.find(idx->id);
    if (it == used_prefix.end()) {
      ++state.idle_intervals;
      ++state.prefix_idle_intervals;
    } else {
      state.idle_intervals = 0;
      state.max_used_prefix = std::max(state.max_used_prefix, it->second);
      if (it->second >= idx->columns.size()) {
        state.prefix_idle_intervals = 0;
      } else {
        ++state.prefix_idle_intervals;
      }
    }
  }
}

void ContinuousTuner::PrepareCache(bool handed, IntervalReport* report) {
  const bool carry = options_.carry_what_if_cache &&
                     options_.aim.what_if_cache_entries > 0 && !handed;
  if (!carry) {
    cache_.reset();
    return;
  }
  if (cache_ == nullptr) {
    cache_ = std::make_unique<optimizer::WhatIfCache>(
        options_.aim.what_if_cache_entries);
  }
  const uint64_t fp = [&] {
    if (options_.online_apply) {
      // Live writers mutate row counts (part of the fingerprint); read it
      // under the shared latch they respect.
      std::shared_lock<std::shared_mutex> lock(db_->latch());
      return db_->catalog().SchemaStatsFingerprint();
    }
    return db_->catalog().SchemaStatsFingerprint();
  }();
  if (!snapshot_load_attempted_ && !options_.cache_snapshot_path.empty()) {
    // One load per tuner lifetime: after the first Tick the in-memory
    // cache is always at least as fresh as the snapshot. Snapshots are
    // namespaced by the schema/statistics fingerprint so fleets of tuners
    // can share one configured path without clobbering each other.
    snapshot_load_attempted_ = true;
    std::ifstream in(
        optimizer::SnapshotPathForFingerprint(options_.cache_snapshot_path,
                                              fp),
        std::ios::binary);
    if (in) {
      Result<bool> adopted = cache_->LoadFrom(in, fp);
      if (adopted.ok() && adopted.ValueOrDie()) {
        report->cache_loaded_from_snapshot = true;
        cache_schema_fingerprint_ = fp;
      } else if (!adopted.ok()) {
        AIM_LOG(Warn) << "what-if cache snapshot load failed (starting "
                      << "cold): " << adopted.status().ToString();
      }
      // Rejected snapshots (stale fingerprint, old version, corruption)
      // are the designed cold-start path: nothing to do.
    }
  }
  if (cache_->size() > 0 && fp != cache_schema_fingerprint_) {
    // Schema or statistics drifted since the carried costs were computed:
    // every entry may now be wrong, so the whole cache goes.
    cache_->Clear();
    report->cache_invalidated = true;
  }
  cache_schema_fingerprint_ = fp;
  report->cache_entries_carried = cache_->size();
}

void ContinuousTuner::PrepareGate(IntervalReport* report) {
  if (!options_.exploration.enabled) {
    gate_.reset();
    detector_.reset();
    return;
  }
  if (gate_ == nullptr) {
    gate_ = std::make_unique<ExplorationGate>(options_.exploration);
    detector_ =
        std::make_unique<support::RegressionDetector>(options_.regression);
  }
  if (!gate_load_attempted_) {
    // One load per tuner lifetime, like the what-if cache snapshot: after
    // the first Tick the in-memory gate is the freshest state there is.
    gate_load_attempted_ = true;
    Status st = gate_->LoadSnapshot();
    if (!st.ok()) {
      AIM_LOG(Warn) << "exploration gate snapshot load failed (starting "
                    << "cold): " << st.ToString();
    }
  }
  const uint64_t fp = [&] {
    if (options_.online_apply) {
      std::shared_lock<std::shared_mutex> lock(db_->latch());
      return db_->catalog().SchemaStatsFingerprint();
    }
    return db_->catalog().SchemaStatsFingerprint();
  }();
  // Drift voids the evidence behind every quarantine entry: release them
  // so the (possibly now-beneficial) indexes can compete again.
  report->quarantine_released = gate_->SyncFingerprint(fp);
  if (report->quarantine_released > 0) {
    static obs::Counter* const released =
        obs::MetricsRegistry::Global()->counter(
            "aim.exploration.quarantine_released");
    released->Add(report->quarantine_released);
  }
}

void ContinuousTuner::SaveGateSnapshot() {
  if (gate_ == nullptr) return;
  Status st = gate_->SaveSnapshot();
  if (!st.ok()) {
    AIM_LOG(Warn) << "exploration gate snapshot save failed: "
                  << st.ToString();
  }
}

Status ContinuousTuner::ObserveRegressions(
    const workload::WorkloadMonitor* monitor,
    std::vector<catalog::IndexDef>* automation,
    storage::IndexSetTransaction* txn, IntervalReport* report) {
  if (gate_ == nullptr || detector_ == nullptr || monitor == nullptr) {
    return Status::OK();
  }
  // Monitor snapshots iterate a hash map: sort by fingerprint so the
  // detector sees (and reports) regressions in one deterministic order
  // at any thread count.
  std::vector<workload::QueryStats> stats = monitor->Snapshot();
  std::sort(stats.begin(), stats.end(),
            [](const workload::QueryStats& a,
               const workload::QueryStats& b) {
              return a.fingerprint < b.fingerprint;
            });
  std::vector<std::pair<catalog::IndexId, catalog::TableId>> suspects_in;
  for (const catalog::IndexDef& def : *automation) {
    if (def.created_by_automation) {
      suspects_in.emplace_back(def.id, def.table);
    }
  }
  const std::vector<support::Regression> regressions =
      detector_->Observe(stats, suspects_in);
  if (regressions.empty()) return Status::OK();

  // One offense per index per interval, however many queries regressed:
  // quarantine counts repeat-offender *intervals*, not queries.
  std::set<catalog::IndexId> suspect_ids;
  for (const support::Regression& r : regressions) {
    for (catalog::IndexId id : r.suspect_indexes) suspect_ids.insert(id);
  }
  obs::Span span(obs::Tracer::Get(), "exploration.regression");
  span.SetAttr("regressions", regressions.size());
  for (catalog::IndexId id : suspect_ids) {
    auto it = std::find_if(automation->begin(), automation->end(),
                           [&](const catalog::IndexDef& def) {
                             return def.id == id;
                           });
    if (it == automation->end() || !it->created_by_automation) continue;
    const catalog::IndexDef def = *it;
    if (gate_->ObserveRegression(def)) {
      report->quarantined_now.push_back(IndexArmKey(def));
    }
    // Rollback: the implicated index leaves production this interval. A
    // degraded tick restores it with everything else via txn rollback.
    AIM_RETURN_NOT_OK(txn->DropIndex(id));
    usage_.erase(id);
    automation->erase(it);
    report->rolled_back.push_back(def);
  }
  static obs::Counter* const rollbacks =
      obs::MetricsRegistry::Global()->counter("aim.exploration.rollbacks");
  rollbacks->Add(report->rolled_back.size());
  span.SetAttr("rolled_back", report->rolled_back.size());
  span.SetAttr("quarantined_now", report->quarantined_now.size());
  return Status::OK();
}

void ContinuousTuner::SaveCacheSnapshot() {
  if (cache_ == nullptr || options_.cache_snapshot_path.empty()) return;
  // Temp-file + rename: concurrent tuners sharing one configured path
  // (fleet tenants, parallel test shards) can never interleave bytes or
  // expose a torn snapshot; the fingerprint suffix keeps distinct schemas
  // in distinct files outright.
  Status st = optimizer::SaveSnapshotAtomic(
      *cache_,
      optimizer::SnapshotPathForFingerprint(options_.cache_snapshot_path,
                                            cache_schema_fingerprint_),
      cache_schema_fingerprint_);
  if (!st.ok()) {
    AIM_LOG(Warn) << "what-if cache snapshot save failed: "
                  << st.ToString();
  }
}

Result<IntervalReport> ContinuousTuner::Tick(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor, const TuningContext& ctx) {
  static obs::Counter* const ticks =
      obs::MetricsRegistry::Global()->counter("tuner.ticks");
  static obs::Counter* const degraded_ticks =
      obs::MetricsRegistry::Global()->counter("tuner.degraded_ticks");
  ticks->Add();
  obs::Span tick_span(obs::Tracer::Get(), "tuner.tick");
  IntervalReport report;
  PrepareCache(ctx.what_if_cache != nullptr, &report);
  PrepareGate(&report);
  // The cache/gate bookkeeping must survive a degraded-interval report
  // reset.
  const size_t cache_entries_carried = report.cache_entries_carried;
  const bool cache_loaded = report.cache_loaded_from_snapshot;
  const bool cache_invalidated = report.cache_invalidated;
  const size_t quarantine_released = report.quarantine_released;
  tick_span.SetAttr("cache_entries_carried", cache_entries_carried);
  storage::IndexSetTransaction txn(
      db_, options_.online_apply ? &db_->latch() : nullptr);
  Status st = TickInternal(workload, monitor, ctx, &txn, &report);
  if (st.ok()) {
    txn.Commit();
    SaveCacheSnapshot();
    SaveGateSnapshot();
  } else {
    // Graceful degradation: skip the interval, roll the GC changes back
    // (AIM's apply step is itself transactional and has already undone
    // its own creates), and report the failure structurally. Production
    // keeps its pre-Tick configuration; the next interval retries. The
    // carried cache keeps any entries the failed run added — their costs
    // are pure functions of (catalog, configuration), which the rollback
    // restored.
    (void)txn.Rollback();
    report = IntervalReport{};
    report.degraded = true;
    report.error = st;
    report.cache_entries_carried = cache_entries_carried;
    report.cache_loaded_from_snapshot = cache_loaded;
    report.cache_invalidated = cache_invalidated;
    report.quarantine_released = quarantine_released;
    degraded_ticks->Add();
    AIM_LOG(Warn) << "tuning interval degraded: " << st.ToString();
  }
  PruneUsage();
  tick_span.SetAttr("degraded", report.degraded);
  tick_span.SetAttr("dropped", report.dropped.size());
  tick_span.SetAttr("shrunk", report.shrunk.size());
  if (!st.ok()) tick_span.SetAttr("error", st.ToString());
  return report;
}

Status ContinuousTuner::TickInternal(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor, TuningContext ctx,
    storage::IndexSetTransaction* txn, IntervalReport* report) {
  AIM_FAULT_POINT("core.tick");
  // Planning reads statistics that live writers update, and must not hold
  // their latch while it runs: online mode plans on a catalog-only copy
  // taken under a brief shared latch. No planning step reads rows; rows
  // are copied only when there are candidates to validate, by
  // ValidateOnClone from the live database. Index ids are shared between
  // the copy and the live catalog (only the tuner performs DDL), so GC
  // decisions made on the copy apply to the live database by id.
  storage::Database view;
  auto copy_catalog = [&] {
    std::shared_lock<std::shared_mutex> lock(db_->latch());
    view = storage::Database::CatalogOnly(db_->catalog());
  };
  if (options_.online_apply) copy_catalog();
  storage::Database* tuning_db = options_.online_apply ? &view : db_;
  // With compression on, usage observation plans one representative per
  // cluster instead of every raw statement (Recommend re-compresses for
  // its own phases; compression is idempotent, so the clusters match).
  workload::CompressedWorkload usage_compressed;
  const workload::Workload* observe_workload = &workload;
  if (options_.aim.compression.enabled && !workload.empty()) {
    obs::Span span(obs::Tracer::Get(), "workload.compress");
    usage_compressed =
        workload::WorkloadCompressor(options_.aim.compression)
            .Compress(workload, monitor, &tuning_db->catalog());
    observe_workload = &usage_compressed.workload;
    span.SetAttr("statements_in", usage_compressed.stats.statements_in);
    span.SetAttr("clusters", usage_compressed.stats.clusters);
  }
  ObserveUsage(*observe_workload, *tuning_db);
  RetryPolicy retry(options_.aim.validation.retry);

  // Garbage-collect automation indexes the workload stopped using.
  // Snapshot definitions by value: CreateIndex below can reallocate the
  // catalog's index storage and invalidate pointers.
  std::vector<catalog::IndexDef> automation;
  for (const catalog::IndexDef* p :
       tuning_db->catalog().AllIndexes(false, false)) {
    automation.push_back(*p);
  }

  // Regression → rollback/quarantine feedback (exploration mode): every
  // automation index RegressionDetector implicates this interval is
  // dropped, and repeat offenders are quarantined out of candidate
  // generation until the schema/stats fingerprint drifts.
  AIM_RETURN_NOT_OK(ObserveRegressions(monitor, &automation, txn, report));

  for (const catalog::IndexDef& def : automation) {
    const catalog::IndexDef* idx = &def;
    if (!idx->created_by_automation) continue;
    auto it = usage_.find(idx->id);
    if (it == usage_.end()) continue;
    const UsageState& state = it->second;
    if (options_.enable_drop &&
        state.idle_intervals >= options_.drop_after_idle_intervals) {
      AIM_RETURN_NOT_OK(txn->DropIndex(idx->id));
      report->dropped.push_back(*idx);
      usage_.erase(it);
      continue;
    }
    if (options_.enable_shrink && state.max_used_prefix > 0 &&
        state.max_used_prefix < idx->columns.size() &&
        state.prefix_idle_intervals >=
            options_.shrink_after_idle_intervals) {
      catalog::IndexDef narrower = *idx;
      narrower.columns.resize(state.max_used_prefix);
      narrower.id = catalog::kInvalidIndex;
      narrower.name.clear();
      {
        // Looked up live: this loop's earlier drops and shrinks are there.
        std::shared_lock<std::shared_mutex> lock(db_->latch());
        if (db_->catalog().FindIndex(narrower.table, narrower.columns) !=
            nullptr) {
          continue;  // the prefix already exists as its own index
        }
      }
      catalog::IndexDef old = *idx;
      // Build the narrower index before dropping the wide one: if the
      // build fails, the old index is still standing (and the transaction
      // guarantees the same even for the drop).
      Result<catalog::IndexId> nid =
          retry.Run([&] { return txn->CreateIndex(narrower); });
      if (!nid.ok()) {
        if (nid.status().code() == Status::Code::kAlreadyExists) continue;
        return nid.status();
      }
      AIM_RETURN_NOT_OK(txn->DropIndex(idx->id));
      usage_.erase(it);
      report->shrunk.emplace_back(old, narrower);
    }
  }

  // Run AIM on this interval's statistics with the tuner's resources
  // filling whatever the caller did not lend: the one pool kept across
  // ticks, the carried plan-cost cache (PrepareCache already invalidated
  // it if the schema or statistics drifted since the cached costs were
  // computed), and the carried candidate cache, which reuses unchanged
  // clusters across intervals and recomputes only drifted/new ones.
  if (ctx.pool == nullptr) {
    ctx.pool = common::EnsurePool(&pool_, options_.aim.num_threads);
  }
  if (ctx.what_if_cache == nullptr) ctx.what_if_cache = cache_.get();
  if (ctx.candidate_cache == nullptr && options_.carry_candidate_cache) {
    if (candidate_cache_ == nullptr) {
      candidate_cache_ =
          std::make_unique<CandidateCache>(options_.candidate_cache_entries);
    }
    ctx.candidate_cache = candidate_cache_.get();
  }
  ctx.gate = gate_.get();
  // Online: plan on a fresh catalog copy, taken after the GC changes went
  // to the live database so that it is the configuration a blocking tick
  // plans on; validate and install on the live database.
  if (options_.online_apply) copy_catalog();
  ctx.apply_db = options_.online_apply ? db_ : nullptr;
  AutomaticIndexManager aim(tuning_db, cm_, options_.aim);
  AIM_ASSIGN_OR_RETURN(report->aim, aim.RunOnce(workload, monitor, ctx));
  if (gate_ != nullptr) {
    // Fold the interval's validated replay evidence into the admitted
    // arms' measured benefit (the bandit's reward samples).
    gate_->ObserveValidation(report->aim.recommended,
                             report->aim.validation);
  }
  return Status::OK();
}

void ContinuousTuner::PruneUsage() {
  for (auto it = usage_.begin(); it != usage_.end();) {
    if (db_->catalog().index(it->first) == nullptr) {
      it = usage_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace aim::core
