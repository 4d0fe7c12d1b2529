// Shared pieces of the AIM benchmark: the command-line contract, the
// operation tally, timing and percentile helpers, the output checks every
// workload runs, the folding of recorded spans into per-layer metrics, and
// the one-line JSON result.
#ifndef AIM_PERFBENCH_BENCH_H_
#define AIM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/aim.h"
#include "executor/executor.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace aim::perfbench {

using Clock = std::chrono::steady_clock;

inline double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The benchmark's command line: `--workload <name> --seed <n>
/// --seconds <s> --trace <0|1>`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Attempted and failed operations of one run. Operations are tuning
/// passes, statement executions, OLTP transactions and output checks. A
/// failed output check also makes the run incorrect.
class Tally {
 public:
  /// Counts one operation; returns `ok`.
  bool Op(bool ok, const std::string& what);
  /// Counts one output check; returns `ok`.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sorted-copy statistics. Empty input yields 0.
double Median(std::vector<double> v);
/// Linear-interpolated percentile, `p` in [0, 100].
double Percentile(std::vector<double> v, double p);
double Sum(const std::vector<double>& v);

/// Peak resident set of this process, MiB (VmHWM).
double PeakRssMb();

/// Order-insensitive result of one statement: the multiset of its rows
/// rendered as SQL literals.
std::multiset<std::string> RowMultiset(const executor::ExecuteResult& r);

/// A copy of `db` with every non-primary index dropped: the unindexed
/// reference the tuned databases' results are compared against.
storage::Database UnindexedCopy(const storage::Database& db);

/// Reference results of `w`'s statements on `db`, in statement order.
/// Returns false when a statement fails.
bool ReferenceResults(storage::Database* db, const workload::Workload& w,
                      std::vector<std::multiset<std::string>>* out);

/// True when real index `id` of `db` has exactly one entry per live heap
/// row and every entry's key equals the key built from its row.
bool IndexMatchesHeap(const storage::Database& db, catalog::IndexId id);

/// Real indexes that automation (or the benchmark) built, i.e. every
/// non-primary, non-hypothetical index.
std::vector<catalog::IndexId> SecondaryIndexes(const storage::Database& db);

/// The id a probe AddIndex receives on a copy of `catalog`: how many index
/// slots the catalog has allocated so far, dropped ones included.
double CatalogIndexSlots(const catalog::Catalog& catalog);
/// Live (non-dropped) indexes of `catalog`, hypothetical ones included.
double CatalogLiveIndexes(const catalog::Catalog& catalog);

/// Heap rows of every table of `db`.
uint64_t LiveRows(const storage::Database& db);

/// Estimated cost of `w` on `catalog`'s real configuration, from a fresh
/// WhatIfOptimizer. `unindexed` plans with secondary indexes removed.
Result<double> EstimatedCost(const catalog::Catalog& catalog,
                             const workload::Workload& w, bool unindexed);

/// Executes every statement of `w` once on `db`, timing each statement
/// and optionally comparing its rows to `reference`. Appends per-statement
/// latencies (ms) to `latencies_ms` when non-null; returns the pass's
/// wall time in seconds.
double ExecutePass(storage::Database* db, const workload::Workload& w,
                   const std::vector<std::multiset<std::string>>* reference,
                   const std::string& label, Tally* tally,
                   std::vector<double>* latencies_ms);

/// Installs a recording tracer for the lifetime of the scope when
/// `tracer` is non-null; otherwise leaves tracing off.
class TraceScope {
 public:
  explicit TraceScope(obs::Tracer* tracer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  obs::Tracer* previous_ = nullptr;
  bool installed_ = false;
};

/// Spans folded by name: how many, their total duration, and their self
/// time (duration minus the part of it that child spans cover).
struct SpanFold {
  std::map<std::string, uint64_t> count;
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  /// Sum of each numeric attribute over spans of one name, keyed
  /// "<span>/<attr>".
  std::map<std::string, double> attr_sum;
  uint64_t spans = 0;

  uint64_t Count(const std::string& name) const;
  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  double Attr(const std::string& name, const std::string& attr) const;
};

SpanFold FoldSpans(const obs::Tracer& tracer);

/// Per-layer values a workload measured itself, beside the folded spans.
/// Every field is a total over the run's traced rounds.
struct LayerInputs {
  double traced_rounds = 0;
  /// Tuning-pass wall times of the traced rounds.
  std::vector<double> traced_tune_s;
  /// Traced minus untraced tuning-pass time, one value per pair of
  /// neighbouring passes that do the same work.
  std::vector<double> trace_overhead_s;
  double cache_hits = 0;
  double cache_misses = 0;
  double partial_orders = 0;
  double partial_orders_merged = 0;
  double candidates_evaluated = 0;
  /// AimRunStats phase times, for the cross-check against spans.
  double stats_validation_s = 0;
  double stats_ranking_s = 0;
  double index_slots = 0;
  double live_indexes = 0;
  double index_build_s = 0;
  double index_build_rows = 0;
  double online_delta_applied = 0;
  double rows_at_end = 0;
  double fleet_pool_threads = 0;
  double oltp_attempted = 0;
  double generator_late_p99_ms = 0;

  /// Adds one traced pass's AimRunStats.
  void AddAimStats(const core::AimRunStats& s);
  /// Records a round's tuning-pass time. Rounds alternate untraced and
  /// traced, so each traced round pairs with the untraced one before it.
  void AddRoundTune(bool traced, double tune_s);

 private:
  double last_untraced_tune_s_ = -1;
};

/// `defs` as definitions of real indexes to build: no id, not
/// hypothetical.
std::vector<catalog::IndexDef> RealIndexDefs(
    std::vector<catalog::IndexDef> defs);

/// Builds `defs` as real indexes on a fresh copy of `base` in one
/// CreateIndexes call, adding its wall time and the heap rows it indexed
/// to `layer`.
void MeasureIndexBuild(const storage::Database& base,
                       const std::vector<catalog::IndexDef>& defs,
                       Tally* tally, LayerInputs* layer);

/// The per-layer metrics of the benchmark, every name in a fixed order,
/// from the tracer's folded spans and the workload's own measurements.
/// Values are per traced round. Checks that the trace is balanced and that
/// spans and AimRunStats agree.
std::vector<Metric> LayerMetrics(const obs::Tracer& tracer,
                                 const LayerInputs& in, Tally* tally);

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  double setup_s = 0;
  double tune_s = 0;
  double exec_s = 0;
  double est_cost_ratio = 0;
  double oltp_p50_ms = 0;
  double oltp_p99_ms = 0;
  double tick_worst_txn_ms = 0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

/// Per-statement latency samples across a run's timed exec passes. A
/// workload without OLTP traffic reports its statement latencies through
/// the oltp_* and tick_worst_txn_ms metrics: p50, p99 and maximum over
/// statements of each statement's median latency, so that one preempted
/// execution does not move them.
class StatementLatencies {
 public:
  /// Adds one timed pass: `ms[i]` is the latency of statement `first + i`.
  void AddPass(size_t first, const std::vector<double>& ms);
  void Fill(EndToEnd* e) const;

 private:
  std::vector<std::vector<double>> samples_;
};

/// What the rounds of a round-based workload (all but tpcc_online_tick)
/// collect.
struct Rounds {
  /// Set-up wall times: the first set-up, then one more at the start of
  /// every round, so that set-up is sampled over the whole run.
  std::vector<double> setup_s;
  std::vector<double> tune_s, exec_s, cost_ratio;
  StatementLatencies latencies;
  LayerInputs layer;
};

/// A round-based workload's result: with `--trace 1` the per-layer
/// metrics, otherwise the end-to-end metrics from the rounds' medians.
std::vector<Metric> RoundMetrics(const Args& args, const obs::Tracer& tracer,
                                 const Rounds& r, Tally* tally);

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics);

/// Rounds run until `--seconds` have passed; a traced run traces every
/// second round and needs one of each kind.
inline bool MoreRounds(const Args& args, int round, Clock::time_point start) {
  return round < (args.trace ? 2 : 1) || Since(start) < args.seconds;
}
inline bool RoundTraced(const Args& args, int round) {
  return args.trace && round % 2 == 1;
}

/// Workload entry points. Each returns its metrics (end-to-end without
/// `--trace 1`, per-layer with it), or nothing when it could not run to
/// its end, and fills `tally`.
std::vector<Metric> RunTpchBootstrap(const Args& args, Tally* tally);
std::vector<Metric> RunTpccOnlineTick(const Args& args, Tally* tally);
std::vector<Metric> RunFleetInterval(const Args& args, Tally* tally);
std::vector<Metric> RunTpchExtend(const Args& args, Tally* tally);

}  // namespace aim::perfbench

#endif  // AIM_PERFBENCH_BENCH_H_
