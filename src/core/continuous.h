#ifndef AIM_CORE_CONTINUOUS_H_
#define AIM_CORE_CONTINUOUS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aim.h"
#include "storage/index_transaction.h"
#include "support/regression_detector.h"

namespace aim::core {

/// Options for the continuous tuner (Sec. VI-D).
struct ContinuousTunerOptions {
  AimOptions aim;
  /// Automation-created indexes unused for this many consecutive
  /// intervals are dropped ("detect and drop unused indexes").
  int drop_after_idle_intervals = 3;
  /// Shrink automation-created indexes whose trailing key parts go unused
  /// for this many intervals ("drop *parts of* unused indexes").
  int shrink_after_idle_intervals = 3;
  bool enable_drop = true;
  bool enable_shrink = true;
  /// Keep the what-if plan-cost cache alive across intervals instead of
  /// rebuilding it from zero every Tick. Sound because cache keys embed
  /// the index-configuration fingerprint (so DDL between intervals only
  /// adds new keys) and the tuner clears the cache whenever the schema
  /// or statistics drift (see Catalog::SchemaStatsFingerprint). Requires
  /// `aim.what_if_cache_entries > 0`.
  bool carry_what_if_cache = true;
  /// Keep per-cluster candidate-generation results across intervals
  /// (incremental candidate generation). Cache keys embed the statement,
  /// configuration, schema/stats, and option fingerprints, so unchanged
  /// clusters are served from the cache while drifted or new clusters —
  /// and any interval after schema/statistics or configuration drift —
  /// miss and recompute; the bounded LRU ages stale keys out. Reuse is
  /// exact (a hit equals recomputation), so this never changes a
  /// selection.
  bool carry_candidate_cache = true;
  /// Capacity of the carried candidate cache, entries (clusters × passes).
  size_t candidate_cache_entries = 8192;
  /// When non-empty, the carried cache is additionally persisted under
  /// this path: a snapshot is loaded once on the first Tick (warm-starting
  /// a restarted tuner) and rewritten after every successful interval. A
  /// missing, stale, or corrupt snapshot simply cold-starts the cache.
  /// The actual file is namespaced by schema/statistics fingerprint —
  /// `optimizer::SnapshotPathForFingerprint(path, fp)` — and written via
  /// temp-file + atomic rename, so any number of tuners (a fleet of
  /// tenants, concurrent processes) may share one configured path without
  /// torn or clobbered snapshots.
  std::string cache_snapshot_path;
  /// Tune a live, traffic-bearing database. Each Tick then plans on a
  /// catalog-only copy taken under a shared acquisition of the database
  /// latch(); only a tick with candidates to validate copies table data,
  /// once, under the same shared latch (see ValidateOnClone). Accepted
  /// indexes install on the live database through OnlineIndexBuilder
  /// (side-build + delta catch-up + bounded-stall swap) and GC drops go
  /// through a latch-aware transaction. Requires every concurrent
  /// writer/reader to follow the Database latch() protocol. Build knobs
  /// live at `aim.online`.
  bool online_apply = false;
  /// Bandit-guarded exploration (see ExplorationGate). When enabled the
  /// tuner owns a gate: quarantined candidates are excluded from
  /// generation, the validated set is admitted under the per-interval
  /// regret budget, RegressionDetector offenses roll the implicated
  /// indexes back (and quarantine repeat offenders until the
  /// schema/stats fingerprint drifts), and gate state persists at
  /// `exploration.state_path`. Ordered deployment is configured
  /// separately at `aim.deployment`.
  ExplorationOptions exploration;
  /// Detector knobs for the regression → rollback/quarantine feedback
  /// loop (only used when `exploration.enabled`).
  support::RegressionDetectorOptions regression;
};

/// What one tuning interval did.
struct IntervalReport {
  AimReport aim;
  std::vector<catalog::IndexDef> dropped;
  /// (old definition, new narrower definition) pairs.
  std::vector<std::pair<catalog::IndexDef, catalog::IndexDef>> shrunk;
  /// True when the interval failed and was skipped: all of its index
  /// changes were rolled back, production is exactly as before the Tick,
  /// and `error` holds the cause. Tuning resumes on the next interval.
  bool degraded = false;
  Status error;
  /// Cross-interval plan-cost cache bookkeeping (valid even on degraded
  /// intervals). `cache_entries_carried` is how many warm entries this
  /// interval started with; per-interval hit/miss deltas live in
  /// `aim.stats`. `cache_invalidated` means schema/statistics drift
  /// cleared the carried entries before this interval's run;
  /// `cache_loaded_from_snapshot` means the warm entries came from the
  /// persisted snapshot rather than the previous interval.
  size_t cache_entries_carried = 0;
  bool cache_loaded_from_snapshot = false;
  bool cache_invalidated = false;
  /// Exploration bookkeeping (empty/zero unless `exploration.enabled`).
  /// Automation indexes dropped this interval because RegressionDetector
  /// implicated them.
  std::vector<catalog::IndexDef> rolled_back;
  /// Arm keys newly quarantined this interval (offense threshold hit).
  std::vector<uint64_t> quarantined_now;
  /// Quarantine entries released because the schema/stats fingerprint
  /// drifted since they were recorded (survives a degraded reset).
  size_t quarantine_released = 0;
};

/// \brief Periodic (naïve, per Sec. VI-D) continuous tuning: run AIM at
/// the end of every statistics interval, and garbage-collect
/// automation-created indexes that the current workload's plans no longer
/// use — entirely or in their trailing key parts.
///
/// The tuner owns one worker pool (sized by `aim.num_threads`, kept
/// across ticks), the carried plan-cost and candidate caches, the
/// exploration gate, and — online — the live database as apply target,
/// and lends them to each interval's AIM run through a TuningContext.
class ContinuousTuner {
 public:
  ContinuousTuner(storage::Database* db, optimizer::CostModel cm,
                  ContinuousTunerOptions options = {})
      : db_(db), cm_(cm), options_(options) {}

  /// One tuning interval: analyze usage of existing automation indexes
  /// against the current workload, drop/shrink idle ones, then run AIM on
  /// the interval's statistics.
  ///
  /// Degrades gracefully: an internal failure never escapes as a non-OK
  /// Result. Instead the interval's changes are rolled back and the
  /// returned report is marked `degraded` with the failure status — the
  /// production configuration is untouched and the tuner stays usable.
  ///
  /// `ctx` lets an owner lend this interval its pool, plan-cost cache, or
  /// candidate cache in place of the tuner's own (the fleet tuner hands
  /// its shared pool and schema-keyed cache); a handed cache is neither
  /// carried, invalidated, nor persisted by the tuner. The gate and the
  /// apply target are always the tuner's own.
  Result<IntervalReport> Tick(const workload::Workload& workload,
                              const workload::WorkloadMonitor* monitor,
                              const TuningContext& ctx = {});

  /// The carried plan-cost cache; null when carrying is disabled or the
  /// last Tick was handed a cache. Exposed for tests and benchmarks
  /// asserting warm-start behaviour.
  const optimizer::WhatIfCache* cache() const { return cache_.get(); }

  /// The carried candidate cache; null until the first Tick (or when
  /// carrying is disabled or the Tick was handed one). Exposed for tests
  /// asserting incremental candidate generation.
  const CandidateCache* candidate_cache() const {
    return candidate_cache_.get();
  }

  /// The exploration gate; null until the first Tick with
  /// `exploration.enabled` (the fleet tuner feeds aggregator benefit
  /// signals here, tests read arm/quarantine state).
  ExplorationGate* exploration_gate() { return gate_.get(); }
  const ExplorationGate* exploration_gate() const { return gate_.get(); }

 private:
  struct UsageState {
    int idle_intervals = 0;
    size_t max_used_prefix = 0;
    int prefix_idle_intervals = 0;
  };

  /// Plans every workload query against `db`'s real configuration and
  /// records which indexes (and how many leading key parts) are used.
  /// `db` is the tuning view: the live database in classic mode, a
  /// catalog-only copy of it in online mode.
  void ObserveUsage(const workload::Workload& workload,
                    const storage::Database& db);

  /// The fallible interval body; all index changes go through `txn` so
  /// Tick can roll them back on failure. `ctx` is the caller's context;
  /// the tuner fills its empty fields before the interval's AIM run.
  Status TickInternal(const workload::Workload& workload,
                      const workload::WorkloadMonitor* monitor,
                      TuningContext ctx, storage::IndexSetTransaction* txn,
                      IntervalReport* report);

  /// Drops usage entries whose index no longer exists (rolled-back or
  /// externally dropped ids).
  void PruneUsage();

  /// Readies `cache_` for the coming interval: allocates it on first use,
  /// loads the snapshot exactly once, and clears carried entries when the
  /// schema/statistics fingerprint drifted. Frees it when carrying is off
  /// or `handed` (the interval uses a caller's cache). Fills the report's
  /// cache bookkeeping fields (they survive a degraded-interval reset
  /// because Tick re-applies them after the reset).
  void PrepareCache(bool handed, IntervalReport* report);

  /// Best-effort snapshot write after a successful interval; failures are
  /// logged, never surfaced (the cache stays warm in memory regardless).
  void SaveCacheSnapshot();

  /// Readies the exploration gate: allocates it (and the regression
  /// detector) on the first enabled Tick, loads the persisted gate state
  /// exactly once, and releases quarantine entries whose schema/stats
  /// fingerprint drifted.
  void PrepareGate(IntervalReport* report);

  /// Best-effort gate-state write after a successful interval.
  void SaveGateSnapshot();

  /// Regression → rollback/quarantine feedback: feeds the interval's
  /// monitor statistics to the detector and drops every implicated
  /// automation index through `txn` (repeat offenders are quarantined by
  /// the gate). `automation` is this interval's automation-index
  /// snapshot; rolled-back ids are erased from it and from `usage_` so
  /// the GC loop does not double-drop.
  Status ObserveRegressions(const workload::WorkloadMonitor* monitor,
                            std::vector<catalog::IndexDef>* automation,
                            storage::IndexSetTransaction* txn,
                            IntervalReport* report);

  storage::Database* db_;
  optimizer::CostModel cm_;
  ContinuousTunerOptions options_;
  /// The tuner's own worker pool, used when a Tick is handed none.
  std::unique_ptr<common::ThreadPool> pool_;
  std::map<catalog::IndexId, UsageState> usage_;
  /// Carried across Ticks; keyed entries stay valid across index DDL, so
  /// only schema/statistics drift clears it.
  std::unique_ptr<optimizer::WhatIfCache> cache_;
  /// Carried per-cluster candidate-generation results (incremental
  /// candgen). Never explicitly invalidated: keys embed every input
  /// fingerprint, so drift surfaces as misses and the LRU evicts.
  std::unique_ptr<CandidateCache> candidate_cache_;
  /// SchemaStatsFingerprint the cached costs were computed against.
  uint64_t cache_schema_fingerprint_ = 0;
  bool snapshot_load_attempted_ = false;
  /// Bandit exploration gate + its regression feedback source; allocated
  /// on the first Tick with `exploration.enabled`. Mutated only in the
  /// tuner's serial sections.
  std::unique_ptr<ExplorationGate> gate_;
  std::unique_ptr<support::RegressionDetector> detector_;
  bool gate_load_attempted_ = false;
};

}  // namespace aim::core

#endif  // AIM_CORE_CONTINUOUS_H_
