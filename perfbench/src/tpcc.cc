// tpcc_online_tick: two open-loop clients send a fixed-rate mix of
// NewOrder, Payment, Delivery and reads to a TPC-C database while a
// ContinuousTuner (online_apply) ticks a fixed number of times on a fixed
// schedule. Each transaction's latency is timed from when it was due, so a
// stall also counts against the transactions queued behind it.
#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/continuous.h"
#include "workload/tpcc_oltp.h"

namespace aim::perfbench {
namespace {

constexpr int kClients = 2;
/// Offered load per client, transactions per second.
constexpr double kRatePerClient = 250.0;
constexpr int kTicks = 8;
constexpr int kSetups = 5;
constexpr int kExecPasses = 100;
constexpr int kReadProbes = 100;
constexpr double kBudgetBytes = 1024.0 * 1024 * 1024;

workload::TpccConfig Scale(uint64_t seed) {
  workload::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 8;
  config.customers_per_district = 50;
  config.items = 200;
  config.initial_orders_per_district = 240;
  config.seed = seed;
  return config;
}

enum class TxnKind { kNewOrder, kPayment, kDelivery, kRead };

/// One scheduled transaction and what happened to it.
struct Txn {
  Clock::time_point due;
  Clock::time_point end;
  TxnKind kind = TxnKind::kRead;
  bool ok = false;
  /// Start minus due when the client was idle at the due time: how late
  /// the sender itself ran. Negative when the client was still busy.
  double late_ms = -1;
};

/// The fixed mix (45% NewOrder, 43% Payment, 4% Delivery, 8% reads),
/// drawn from the seed.
std::vector<Txn> Schedule(uint64_t seed, Clock::time_point start,
                          double seconds) {
  Rng rng(seed);
  const size_t n = static_cast<size_t>(seconds * kRatePerClient);
  std::vector<Txn> txns(n);
  for (size_t i = 0; i < n; ++i) {
    txns[i].due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / kRatePerClient));
    const uint64_t draw = rng.Uniform(100);
    txns[i].kind = draw < 45   ? TxnKind::kNewOrder
                   : draw < 88 ? TxnKind::kPayment
                   : draw < 92 ? TxnKind::kDelivery
                               : TxnKind::kRead;
  }
  return txns;
}

void Client(workload::TpccDatabase* tpcc, uint64_t seed,
            std::vector<Txn>* txns) {
  Rng rng(seed);
  for (Txn& t : *txns) {
    const auto now = Clock::now();
    if (now < t.due) {
      std::this_thread::sleep_until(t.due);
      t.late_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            t.due)
                      .count();
    }
    Status st;
    switch (t.kind) {
      case TxnKind::kNewOrder: st = tpcc->NewOrder(&rng); break;
      case TxnKind::kPayment: st = tpcc->Payment(&rng); break;
      case TxnKind::kDelivery: st = tpcc->Delivery(&rng); break;
      case TxnKind::kRead: st = tpcc->ReadQuery(&rng); break;
    }
    t.ok = st.ok();
    t.end = Clock::now();
  }
}

/// The statements of the exec phase: the tuner's analytical workload plus
/// seeded read probes of the shapes the clients send.
Result<workload::Workload> ReadWorkload(const workload::TpccDatabase& tpcc,
                                        uint64_t seed) {
  AIM_ASSIGN_OR_RETURN(workload::Workload w, tpcc.AnalyticalWorkload());
  const workload::TpccConfig& c = tpcc.config();
  Rng rng(seed ^ 0x5eed);
  for (int i = 0; i < kReadProbes; ++i) {
    std::string sql;
    switch (i % 4) {
      case 0:
        sql = StringPrintf(
            "SELECT o_id, o_entry_d FROM orders WHERE o_c_id = %d",
            static_cast<int>(rng.Uniform(c.customers_per_district)));
        break;
      case 1:
        sql = StringPrintf(
            "SELECT ol_o_id, ol_amount FROM order_line WHERE ol_i_id = %d",
            static_cast<int>(rng.Uniform(c.items)));
        break;
      case 2:
        sql = StringPrintf(
            "SELECT c_id, c_balance FROM customer WHERE c_last_id = %d",
            static_cast<int>(rng.Uniform(c.customers_per_district / 3 + 1)));
        break;
      default:
        sql = StringPrintf(
            "SELECT s_i_id, s_quantity FROM stock WHERE s_quantity < %d",
            15 + static_cast<int>(rng.Uniform(20)));
        break;
    }
    AIM_RETURN_NOT_OK(w.Add(std::move(sql)));
  }
  return w;
}

/// One timed set-up: a loaded TPC-C database and its analytical workload.
/// Records the wall time in `setup_s`.
bool TimedSetup(uint64_t seed, std::unique_ptr<workload::TpccDatabase>* tpcc,
                Result<workload::Workload>* analytical,
                std::vector<double>* setup_s) {
  const auto t0 = Clock::now();
  *tpcc = std::make_unique<workload::TpccDatabase>(Scale(seed));
  const Status loaded = (*tpcc)->Load();
  *analytical = (*tpcc)->AnalyticalWorkload();
  if (!loaded.ok() || !analytical->ok()) return false;
  setup_s->push_back(Since(t0));
  return true;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

std::vector<Metric> RunTpccOnlineTick(const Args& args, Tally* tally) {
  std::vector<double> setup_times;
  std::unique_ptr<workload::TpccDatabase> tpcc;
  Result<workload::Workload> analytical = Status::Internal("not run");
  obs::Tracer tracer;
  for (int i = 0; i < kSetups; ++i) {
    TraceScope scope(args.trace && i == kSetups - 1 ? &tracer : nullptr);
    if (!tally->Op(TimedSetup(args.seed, &tpcc, &analytical, &setup_times),
                   "tpcc setup")) {
      return {};
    }
  }
  const uint64_t initial_orders =
      tpcc->db().heap(tpcc->orders_table()).live_count();
  const uint64_t initial_history =
      tpcc->db().heap(tpcc->history_table()).live_count();

  core::ContinuousTunerOptions options;
  options.online_apply = true;
  options.aim.num_threads = 1;
  options.aim.ranking.storage_budget_bytes = kBudgetBytes;
  core::ContinuousTuner tuner(&tpcc->db(), optimizer::CostModel(), options);

  // The schedule starts shortly after the clients are created; ticks sit
  // at the middle of kTicks equal slices of the run. A traced run traces
  // the even ticks, so the first tick's online installs are traced.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::vector<Txn>> txns;
  for (int c = 0; c < kClients; ++c) {
    txns.push_back(Schedule(args.seed * 131 + c, start, args.seconds));
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(Client, tpcc.get(), args.seed * 977 + c, &txns[c]);
  }
  struct TickRecord {
    Clock::time_point begin, end;
    bool traced = false;
  };
  std::vector<TickRecord> ticks;
  std::vector<Result<core::IntervalReport>> reports;
  for (int k = 0; k < kTicks; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds * (k + 0.5) /
                                                  kTicks)));
    const bool traced = args.trace && k % 2 == 0;
    TraceScope scope(traced ? &tracer : nullptr);
    TickRecord tick;
    tick.traced = traced;
    tick.begin = Clock::now();
    {
      obs::Span tune(obs::Tracer::Get(), "bench.tune");
      reports.push_back(tuner.Tick(analytical.ValueOrDie(), nullptr));
    }
    tick.end = Clock::now();
    ticks.push_back(tick);
    if (traced) {
      // The copy a tick makes of the live database under its exclusive
      // latch, measured from outside.
      obs::Span copy(obs::Tracer::Get(), "bench.snapshot_copy");
      std::unique_lock<std::shared_mutex> lock(tpcc->db().latch());
      storage::Database snapshot = tpcc->db();
    }
  }
  for (std::thread& t : clients) t.join();

  // Transactions: latency from due time, commits tallied for the row-count
  // check, and the open-loop sender's own lateness.
  std::vector<double> latencies_ms, late_ms;
  uint64_t new_orders = 0, payments = 0;
  for (const std::vector<Txn>& client : txns) {
    for (const Txn& t : client) {
      if (!tally->Op(t.ok, "tpcc transaction")) continue;
      latencies_ms.push_back(Ms(t.end - t.due));
      if (t.late_ms >= 0) late_ms.push_back(t.late_ms);
      if (t.kind == TxnKind::kNewOrder) ++new_orders;
      if (t.kind == TxnKind::kPayment) ++payments;
    }
  }
  std::vector<double> tune_s, worst_ms;
  LayerInputs layer;
  // Per tick: its wall time, or -1 when it failed or changed indexes, so
  // that the trace overhead compares ticks that do the same work.
  std::vector<double> steady_tick_s(ticks.size(), -1);
  for (size_t k = 0; k < ticks.size(); ++k) {
    const bool ok = reports[k].ok() && !reports[k].ValueOrDie().degraded;
    if (!tally->Op(ok, "tick " + std::to_string(k))) continue;
    const double s = std::chrono::duration<double>(ticks[k].end -
                                                   ticks[k].begin)
                         .count();
    tune_s.push_back(s);
    if (ticks[k].traced) layer.traced_tune_s.push_back(s);
    const core::IntervalReport& interval = reports[k].ValueOrDie();
    if (interval.aim.stats.online_builds == 0 && interval.dropped.empty() &&
        interval.shrunk.empty()) {
      steady_tick_s[k] = s;
    }
    double worst = 0;
    for (const std::vector<Txn>& client : txns) {
      for (const Txn& t : client) {
        if (t.due <= ticks[k].end && t.end >= ticks[k].begin) {
          worst = std::max(worst, Ms(t.end - t.due));
        }
      }
    }
    worst_ms.push_back(worst);
    const core::AimReport& aim = interval.aim;
    double bytes = 0;
    for (const core::CandidateIndex& c : aim.recommended) {
      bytes += tpcc->db().catalog().IndexSizeBytes(c.def);
    }
    tally->Check(bytes <= kBudgetBytes, "recommended set fits the budget");
    if (ticks[k].traced) {
      layer.traced_rounds += 1;
      layer.AddAimStats(aim.stats);
      layer.index_slots += CatalogIndexSlots(tpcc->db().catalog());
      layer.live_indexes += CatalogLiveIndexes(tpcc->db().catalog());
    }
  }

  // Each traced tick pairs with the untraced tick after it.
  for (size_t k = 0; k + 1 < ticks.size(); ++k) {
    if (ticks[k].traced && steady_tick_s[k] >= 0 &&
        steady_tick_s[k + 1] >= 0) {
      layer.trace_overhead_s.push_back(steady_tick_s[k] -
                                       steady_tick_s[k + 1]);
    }
  }

  // Output checks on the quiesced database.
  storage::Database& db = tpcc->db();
  tally->Check(
      db.heap(tpcc->orders_table()).live_count() == initial_orders + new_orders,
      "orders rows = initial + NewOrder commits");
  tally->Check(db.heap(tpcc->history_table()).live_count() ==
                   initial_history + payments,
               "history rows = initial + Payment commits");
  const std::vector<catalog::IndexId> installed = SecondaryIndexes(db);
  tally->Check(!installed.empty(), "the tuner installed indexes online");
  for (catalog::IndexId id : installed) {
    tally->Check(IndexMatchesHeap(db, id), "online index matches heap");
  }
  Result<double> tuned_cost = EstimatedCost(db.catalog(), analytical.ValueOrDie(), false);
  Result<double> unindexed_cost =
      EstimatedCost(db.catalog(), analytical.ValueOrDie(), true);
  double cost_ratio = 0;
  if (tally->Op(tuned_cost.ok() && unindexed_cost.ok(), "estimated cost")) {
    cost_ratio = tuned_cost.ValueOrDie() / unindexed_cost.ValueOrDie();
    tally->Check(cost_ratio <= 1.0 + 1e-9, "est_cost_ratio <= 1");
  }
  Result<workload::Workload> reads = ReadWorkload(*tpcc, args.seed);
  if (!tally->Op(reads.ok(), "read workload")) return {};
  std::vector<std::multiset<std::string>> reference;
  {
    storage::Database unindexed = UnindexedCopy(db);
    tally->Op(ReferenceResults(&unindexed, reads.ValueOrDie(), &reference),
              "unindexed reference");
  }
  ExecutePass(&db, reads.ValueOrDie(), nullptr, "warm-up", tally, nullptr);
  std::vector<double> exec_s;
  for (int p = 0; p < kExecPasses; ++p) {
    TraceScope scope(args.trace && p % 2 == 0 ? &tracer : nullptr);
    exec_s.push_back(ExecutePass(&db, reads.ValueOrDie(), &reference, "exec", tally,
                                 nullptr));
  }

  if (args.trace) {
    layer.rows_at_end = static_cast<double>(LiveRows(db));
    layer.oltp_attempted = 0;
    for (const std::vector<Txn>& client : txns) {
      layer.oltp_attempted += static_cast<double>(client.size());
    }
    layer.generator_late_p99_ms = Percentile(late_ms, 99);
    return LayerMetrics(tracer, layer, tally);
  }
  // The set-up again after the run, into databases that are thrown away,
  // so that setup_s samples the machine at both ends of the run.
  for (int i = 0; i < kSetups; ++i) {
    std::unique_ptr<workload::TpccDatabase> again;
    Result<workload::Workload> again_analytical = Status::Internal("not run");
    tally->Op(TimedSetup(args.seed, &again, &again_analytical, &setup_times),
              "tpcc setup");
  }
  EndToEnd e;
  e.setup_s = Median(setup_times);
  e.tune_s = Median(tune_s);
  e.exec_s = Median(exec_s);
  e.est_cost_ratio = cost_ratio;
  e.oltp_p50_ms = Percentile(latencies_ms, 50);
  e.oltp_p99_ms = Percentile(latencies_ms, 99);
  e.tick_worst_txn_ms = Median(worst_ms);
  return EndToEndMetrics(e);
}

}  // namespace aim::perfbench
