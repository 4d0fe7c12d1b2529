#ifndef AIM_CORE_AIM_H_
#define AIM_CORE_AIM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_generation.h"
#include "core/clone_validation.h"
#include "core/deployment_plan.h"
#include "core/explain.h"
#include "core/exploration.h"
#include "core/merge.h"
#include "core/ranking.h"
#include "core/workload_selection.h"
#include "storage/database.h"
#include "storage/index_transaction.h"
#include "storage/online_index_builder.h"
#include "workload/compression.h"

namespace aim::core {

/// \brief Everything one run borrows from its owner: the shared resources
/// that outlive a single run. Options hold knobs only; lifetime,
/// invalidation and sharing of these are the owner's job. Every field is
/// optional — null means the run uses a private one (pool, plan-cost
/// cache) or goes without (candidate reuse, gating, online apply).
struct TuningContext {
  /// Worker pool to fan out on instead of a private `num_threads` pool.
  /// Inner tasks queue one nesting level deeper than the caller's and
  /// waiting tasks help drain deeper work, so the fleet tuner runs tenant
  /// ticks and their what-if work on one fixed-size pool without deadlock
  /// (see common::ThreadPool). Decisions are bit-identical at any width.
  common::ThreadPool* pool = nullptr;
  /// Plan-cost cache carried across runs (the continuous tuner's
  /// intervals, the fleet's same-schema tenants) instead of a per-run
  /// one. The run reports its activity as deltas and never clears it.
  optimizer::WhatIfCache* what_if_cache = nullptr;
  /// Per-cluster candidate cache: incremental candidate generation across
  /// intervals. Keys embed the statement, configuration, schema/stats,
  /// and option fingerprints, so a hit is exactly what recomputation
  /// would produce; drifted or new clusters miss and recompute.
  CandidateCache* candidate_cache = nullptr;
  /// Exploration gate (bandit admission + quarantine): Recommend excludes
  /// quarantined candidates and RunOnce admits the validated set through
  /// `Admit` before applying. Mutated only from RunOnce's serial sections.
  ExplorationGate* gate = nullptr;
  /// Online-apply target: RunOnce validates against a clone of this live
  /// database and installs the accepted indexes on it through
  /// OnlineIndexBuilder (side-build + delta catch-up + bounded-stall swap
  /// under its latch()) instead of blocking CreateIndex on the tuning
  /// database — how the continuous tuner plans on a catalog-only copy
  /// while validating and installing under traffic.
  storage::Database* apply_db = nullptr;
};

/// End-to-end configuration of one AIM run (Algorithm 1).
struct AimOptions {
  CandidateGenOptions candidates;
  WorkloadSelectionOptions selection;
  RankingOptions ranking;
  CloneValidationOptions validation;
  MergeOptions merge;
  /// Materialize-and-replay validation on a clone before recommending
  /// (line 3 of Algorithm 1). Disable for estimate-only benchmarks.
  bool validate_on_clone = true;
  /// Two-phase generation (Sec. III-B): first narrow indexes for every
  /// inefficient query, then covering indexes where the seek volume
  /// justifies them.
  bool two_phase = true;
  /// Worker threads of the parallel what-if engine. 1 = the serial
  /// fallback (no pool, no worker clones). The pipeline is deterministic:
  /// any value produces bit-identical reports.
  int num_threads = 1;
  /// Capacity (entries) of the memoizing plan-cost cache shared by all
  /// what-if clones of one run. 0 disables memoization entirely — the
  /// pre-cache engine, kept for A/B benchmarking.
  size_t what_if_cache_entries = 4096;
  /// Build knobs for online installs (runs whose TuningContext names an
  /// `apply_db`).
  storage::OnlineBuildOptions online;
  /// Workload compression (the CoPhy-style pre-pass): cluster the
  /// interval's statements into templates / structural clusters and run
  /// selection → candidate generation → ranking on weighted cluster
  /// representatives, with per-cluster frequency roll-up. Off by default.
  workload::WorkloadCompressionOptions compression;
  /// Ordered per-step deployment of the approved set (Kimura et al.).
  /// `deployment.ordered = false` keeps the classic all-or-nothing
  /// single-transaction apply.
  DeploymentOptions deployment;
};

/// The validation knobs a run uses: `options.validation` with replay
/// dedup switched on whenever the run memoizes plan costs (a handed
/// cache or `what_if_cache_entries > 0`). With memoization off the engine
/// behaves exactly like the pre-cache one.
CloneValidationOptions RunValidationOptions(const AimOptions& options,
                                            const TuningContext& ctx);

/// Run statistics, for the runtime comparisons of Fig. 4.
struct AimRunStats {
  double runtime_seconds = 0.0;
  uint64_t what_if_calls = 0;
  size_t queries_selected = 0;
  size_t partial_orders_generated = 0;
  size_t partial_orders_after_merge = 0;
  size_t candidates_evaluated = 0;
  size_t indexes_recommended = 0;
  size_t indexes_rejected_by_validation = 0;
  /// Plan-cost cache activity attributable to this run (zeros when
  /// disabled). With a handed cache these are deltas against the counters
  /// at run start, so carried-over caches don't double-count prior runs.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Ready cache entries visible when the run started. Non-zero means a
  /// warm start: entries carried over from an earlier interval or loaded
  /// from a persisted snapshot.
  size_t cache_entries_at_start = 0;
  bool cache_warm_start = false;
  /// Per-phase wall-time breakdown, seconds (where a Fig. 4-style bench's
  /// time actually goes). selection + candgen + ranking sum to Recommend;
  /// validation + apply are the extra RunOnce phases.
  double selection_seconds = 0.0;
  double candgen_seconds = 0.0;
  double ranking_seconds = 0.0;
  double validation_seconds = 0.0;
  double apply_seconds = 0.0;
  /// Sharded-run extras (zero outside ShardedIndexManager): wall time of
  /// the per-shard validation fan-out and of the all-shard apply.
  double shard_validation_seconds = 0.0;
  double shard_apply_seconds = 0.0;
  /// Online-apply extras (zero on the blocking path): indexes installed
  /// through OnlineIndexBuilder, delta entries applied across those
  /// builds, and the worst exclusive swap stall.
  size_t online_builds = 0;
  uint64_t online_delta_applied = 0;
  double online_max_stall_seconds = 0.0;
  /// Workload-compression activity (identity values when disabled).
  uint64_t compression_statements_in = 0;
  size_t compression_clusters = 0;
  double compression_ratio = 1.0;
  double compression_seconds = 0.0;
  /// Incremental candidate generation (zeros without a candidate cache).
  /// One "cluster" per selected query per generation pass; reused =
  /// served from the carried cache, recomputed = generated this run.
  size_t candgen_clusters_total = 0;
  size_t candgen_clusters_reused = 0;
  size_t candgen_clusters_recomputed = 0;

  double candgen_reuse_rate() const {
    return candgen_clusters_total == 0
               ? 0.0
               : static_cast<double>(candgen_clusters_reused) /
                     static_cast<double>(candgen_clusters_total);
  }

  double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// The outcome of one AIM run.
struct AimReport {
  std::vector<CandidateIndex> recommended;
  std::vector<std::string> explanations;
  std::vector<SelectedQuery> selected_workload;
  CloneValidationResult validation;
  AimRunStats stats;
  /// Bandit-gate admission summary (zeros unless the run's context
  /// carried an exploration gate).
  ExplorationSummary exploration;
  /// Ordered-deployment outcome (zeros unless `deployment.ordered`).
  DeploymentReport deployment;
  /// The compressed workload the run planned on (null when compression is
  /// off). Shared ownership keeps the representative queries that
  /// `selected_workload` points at alive across report copies/moves.
  std::shared_ptr<const workload::CompressedWorkload> compressed;
};

/// \brief AIM — the Automatic Index Manager (Algorithm 1).
///
/// Typical use:
/// \code
///   AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
///   AIM_ASSIGN_OR_RETURN(AimReport report, aim.RunOnce(workload, &mon));
/// \endcode
///
/// `Recommend` computes (but does not apply) the recommendation;
/// `RunOnce` additionally validates on a clone and materializes the
/// accepted indexes on the production database, tagged
/// `created_by_automation` for the regression detector.
class AutomaticIndexManager {
 public:
  AutomaticIndexManager(storage::Database* db, optimizer::CostModel cm,
                        AimOptions options = {})
      : db_(db), cm_(cm), options_(options) {}

  /// Lines 1–2 + ranking of Algorithm 1 (no materialization). `monitor`
  /// may be null for pure bootstrap (weights drive the selection). `ctx`
  /// lends the run shared resources (see TuningContext).
  Result<AimReport> Recommend(const workload::Workload& workload,
                              const workload::WorkloadMonitor* monitor,
                              const TuningContext& ctx = {});

  /// Full Algorithm 1: recommend, validate on a clone, materialize the
  /// survivors on the production database (or on `ctx.apply_db`, which
  /// then is also what the clone is copied from).
  Result<AimReport> RunOnce(const workload::Workload& workload,
                            const workload::WorkloadMonitor* monitor,
                            const TuningContext& ctx = {});

  const AimOptions& options() const { return options_; }

 private:
  /// Wraps every workload query as a SelectedQuery when no monitor data
  /// exists (static tuning / bootstrapping, Sec. II-A).
  std::vector<SelectedQuery> SelectQueries(
      const workload::Workload& workload,
      const workload::WorkloadMonitor* monitor) const;

  /// The context's pool, else the private one sized by `num_threads`
  /// (nullptr in serial mode).
  common::ThreadPool* Pool(const TuningContext& ctx);

  /// The install target, which is also the validation source:
  /// `ctx.apply_db` when set, else the tuning database. The tuning
  /// database may then be a catalog-only planning view
  /// (storage::Database::CatalogOnly); rows are read only from here.
  storage::Database* Target(const TuningContext& ctx) const;

  /// The one install path: builds `def` as an automation index inside
  /// `txn` — online on `ctx.apply_db` (folding the build into `stats`),
  /// else a retried blocking CreateIndex. An index that already exists
  /// counts as installed.
  Status Install(catalog::IndexDef def, const TuningContext& ctx,
                 storage::IndexSetTransaction* txn, AimRunStats* stats);

  /// The ordered apply path (`options_.deployment.ordered`): plans the
  /// build order via DeploymentPlanner, then installs each step in its
  /// own IndexSetTransaction — a failed step rolls back only itself,
  /// earlier installs stay (each index was individually validated).
  /// `report->recommended` is rewritten to the installed subset.
  Status ApplyOrdered(AimReport* report, const TuningContext& ctx);

  storage::Database* db_;
  optimizer::CostModel cm_;
  AimOptions options_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace aim::core

#endif  // AIM_CORE_AIM_H_
