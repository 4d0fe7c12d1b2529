// Online index build vs blocking CreateIndex under live TPC-C traffic.
// Measures what the robustness work actually buys: the write stall a
// DDL imposes on concurrent OLTP clients. The blocking path holds the
// exclusive latch for the whole heap scan; the online path's only
// exclusive window is the bounded-tail swap. Then runs online
// ContinuousTuner ticks under the same traffic at 1x and 4x the order
// history: per tick, the worst client transaction and the table rows the
// tick copied under the latch (only a tick with candidates to validate
// copies any). Emits the "online_build" section of BENCH_results.json
// (write-stall seconds both ways, worst client txn latency both ways,
// build throughput, per-tick records).
#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/continuous.h"
#include "obs/trace.h"
#include "storage/online_index_builder.h"
#include "workload/tpcc_oltp.h"

using namespace aim;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

workload::TpccConfig BenchScale() {
  workload::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 8;
  config.customers_per_district = 50;
  config.items = 200;
  // ~2k pre-loaded orders -> ~20k order_line rows: enough heap that the
  // blocking scan's stall is visibly worse than the online swap's.
  config.initial_orders_per_district = 120;
  config.seed = 7;
  return config;
}

catalog::IndexDef OrderLineByItem(const workload::TpccDatabase& tpcc) {
  catalog::IndexDef def;
  def.table = tpcc.order_line_table();
  def.columns = {4};  // ol_i_id — none of the clustered PKs cover it
  return def;
}

struct RunResult {
  double stall_seconds = 0.0;      // exclusive-latch time the DDL held
  double build_seconds = 0.0;      // DDL wall time end to end
  double max_txn_seconds = 0.0;    // worst client transaction latency
  uint64_t commits = 0;
  uint64_t errors = 0;
  uint64_t rows = 0;               // entries in the finished index
  uint64_t delta_applied = 0;      // online only
};

/// Runs `clients` OLTP loops, performs one DDL mid-traffic via `ddl`,
/// lets traffic run a beat longer, then stops and merges the numbers.
template <typename Ddl>
Result<RunResult> RunUnderTraffic(int clients, Ddl&& ddl) {
  workload::TpccDatabase tpcc(BenchScale());
  Status loaded = tpcc.Load();
  if (!loaded.ok()) return loaded;
  common::ThreadPool pool(clients + 1);
  workload::OltpDriver driver(&tpcc, &pool, clients);
  Status started = driver.Start();
  if (!started.ok()) return started;
  // Let the clients reach steady state before the DDL lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  RunResult out;
  const auto build_begin = Clock::now();
  Result<uint64_t> rows = ddl(&tpcc, &out);
  out.build_seconds = Seconds(build_begin, Clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  workload::OltpStats stats = driver.Stop();
  if (!rows.ok()) return rows.status();
  out.rows = rows.ValueOrDie();
  out.max_txn_seconds = stats.max_txn_seconds;
  out.commits = stats.total_commits();
  out.errors = stats.errors;
  return out;
}

Result<uint64_t> IndexRows(storage::Database* db, catalog::IndexId id) {
  const storage::BTreeIndex* tree = db->btree(id);
  if (tree == nullptr) return Status::Internal("index has no tree");
  return tree->entry_count();
}

struct TickResult {
  int scale = 1;                     // x initial_orders_per_district
  int tick = 0;
  double tick_seconds = 0.0;
  double max_txn_seconds = 0.0;      // worst client txn around the tick
  uint64_t commits = 0;
  uint64_t validated_candidates = 0; // candidates the tick validated
  uint64_t installed = 0;
  uint64_t rows_copied = 0;          // heap rows copied under the latch
};

/// Sum of the `rows` attribute over every validation.source_copy span
/// `tracer` has recorded: the table rows copied under the latch so far.
uint64_t RowsCopied(const obs::Tracer& tracer) {
  uint64_t rows = 0;
  for (const obs::Tracer::SpanRecord& span : tracer.Snapshot()) {
    if (span.name != "validation.source_copy") continue;
    for (const obs::TraceAttr& attr : span.attrs) {
      if (attr.key == "rows") rows += std::stoull(attr.value);
    }
  }
  return rows;
}

/// `ticks` online tuner ticks of the analytical workload on a database
/// with `scale`x the bench's order history. Traffic runs from shortly
/// before to shortly after each tick, so the worst transaction of that
/// window is the tick's. A recording tracer attributes copied rows to
/// ticks; it is on for every tick, so tick times include its cost.
Result<std::vector<TickResult>> RunTicks(int clients, int scale, int ticks) {
  workload::TpccConfig config = BenchScale();
  config.initial_orders_per_district *= scale;
  workload::TpccDatabase tpcc(config);
  Status loaded = tpcc.Load();
  if (!loaded.ok()) return loaded;
  Result<workload::Workload> analytical = tpcc.AnalyticalWorkload();
  if (!analytical.ok()) return analytical.status();
  core::ContinuousTunerOptions options;
  options.online_apply = true;
  core::ContinuousTuner tuner(&tpcc.db(), optimizer::CostModel(), options);
  common::ThreadPool pool(clients + 1);
  obs::Tracer tracer;
  obs::Tracer::Install(&tracer);
  std::vector<TickResult> out;
  Status failed;
  for (int k = 0; k < ticks; ++k) {
    workload::OltpDriver driver(&tpcc, &pool, clients, /*seed=*/99 + k);
    failed = driver.Start();
    if (!failed.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t rows_before = RowsCopied(tracer);
    const auto begin = Clock::now();
    Result<core::IntervalReport> r =
        tuner.Tick(analytical.ValueOrDie(), nullptr);
    const double seconds = Seconds(begin, Clock::now());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const workload::OltpStats stats = driver.Stop();
    if (!r.ok() || r.ValueOrDie().degraded) {
      failed = r.ok() ? r.ValueOrDie().error : r.status();
      break;
    }
    const core::AimReport& aim = r.ValueOrDie().aim;
    TickResult t;
    t.scale = scale;
    t.tick = k;
    t.tick_seconds = seconds;
    t.max_txn_seconds = stats.max_txn_seconds;
    t.commits = stats.total_commits();
    t.validated_candidates =
        aim.validation.accepted.size() + aim.validation.rejected_unused.size();
    t.installed = aim.recommended.size();
    t.rows_copied = RowsCopied(tracer) - rows_before;
    out.push_back(t);
  }
  obs::Tracer::Install(nullptr);
  if (!failed.ok()) return failed;
  return out;
}

}  // namespace

int main() {
  bench::Header(
      "Online index build — write stall vs blocking CreateIndex under "
      "live TPC-C traffic");
  constexpr int kClients = 4;

  // Blocking: CreateIndex scans the whole heap under one exclusive
  // latch acquisition; every client stalls for the duration.
  Result<RunResult> blocking =
      RunUnderTraffic(kClients, [](workload::TpccDatabase* tpcc,
                                   RunResult* out) -> Result<uint64_t> {
        std::unique_lock<std::shared_mutex> lock(tpcc->db().latch());
        const auto stall_begin = Clock::now();
        Result<catalog::IndexId> id =
            tpcc->db().CreateIndex(OrderLineByItem(*tpcc));
        out->stall_seconds = Seconds(stall_begin, Clock::now());
        if (!id.ok()) return id.status();
        return IndexRows(&tpcc->db(), id.ValueOrDie());
      });
  if (!blocking.ok()) {
    std::fprintf(stderr, "blocking run failed: %s\n",
                 blocking.status().ToString().c_str());
    return 1;
  }

  // Online: chunked shared-latch scan + delta catch-up; the swap is the
  // only exclusive window and applies at most max_swap_tail entries.
  Result<RunResult> online =
      RunUnderTraffic(kClients, [](workload::TpccDatabase* tpcc,
                                   RunResult* out) -> Result<uint64_t> {
        storage::OnlineIndexBuilder builder(&tpcc->db());
        Result<storage::OnlineBuildReport> r =
            builder.Build(OrderLineByItem(*tpcc));
        if (!r.ok()) return r.status();
        out->stall_seconds = r.ValueOrDie().stall_seconds;
        out->delta_applied = r.ValueOrDie().delta_applied +
                             r.ValueOrDie().swap_tail_applied;
        return IndexRows(&tpcc->db(), r.ValueOrDie().id);
      });
  if (!online.ok()) {
    std::fprintf(stderr, "online run failed: %s\n",
                 online.status().ToString().c_str());
    return 1;
  }

  const RunResult& b = blocking.ValueOrDie();
  const RunResult& o = online.ValueOrDie();
  const double online_throughput =
      o.build_seconds > 0 ? static_cast<double>(o.rows) / o.build_seconds
                          : 0.0;

  std::printf("%-10s %14s %14s %14s %10s %8s\n", "path", "stall_ms",
              "max_txn_ms", "build_ms", "commits", "rows");
  std::printf("%-10s %14.3f %14.3f %14.3f %10llu %8llu\n", "blocking",
              b.stall_seconds * 1e3, b.max_txn_seconds * 1e3,
              b.build_seconds * 1e3,
              static_cast<unsigned long long>(b.commits),
              static_cast<unsigned long long>(b.rows));
  std::printf("%-10s %14.3f %14.3f %14.3f %10llu %8llu\n", "online",
              o.stall_seconds * 1e3, o.max_txn_seconds * 1e3,
              o.build_seconds * 1e3,
              static_cast<unsigned long long>(o.commits),
              static_cast<unsigned long long>(o.rows));
  std::printf(
      "online: %llu delta entries caught up, %.0f rows/s build "
      "throughput, stall %.2fx smaller than blocking\n",
      static_cast<unsigned long long>(o.delta_applied), online_throughput,
      o.stall_seconds > 0 ? b.stall_seconds / o.stall_seconds : 0.0);

  // Online tuner ticks: the first tick validates and installs; later
  // ticks have nothing to validate and must copy no table rows.
  constexpr int kTicks = 4;
  std::vector<TickResult> tick_results;
  for (int scale : {1, 4}) {
    Result<std::vector<TickResult>> ticks =
        RunTicks(kClients, scale, kTicks);
    if (!ticks.ok()) {
      std::fprintf(stderr, "tick run (scale %d) failed: %s\n", scale,
                   ticks.status().ToString().c_str());
      return 1;
    }
    for (const TickResult& t : ticks.ValueOrDie()) tick_results.push_back(t);
  }
  std::printf("\n%-6s %5s %12s %14s %10s %10s %12s\n", "scale", "tick",
              "tick_ms", "max_txn_ms", "validated", "installed",
              "rows_copied");
  std::string ticks_json = "[";
  for (const TickResult& t : tick_results) {
    std::printf("%-6d %5d %12.3f %14.3f %10llu %10llu %12llu\n", t.scale,
                t.tick, t.tick_seconds * 1e3, t.max_txn_seconds * 1e3,
                static_cast<unsigned long long>(t.validated_candidates),
                static_cast<unsigned long long>(t.installed),
                static_cast<unsigned long long>(t.rows_copied));
    bench::JsonObject o;
    o.Add("scale", t.scale)
        .Add("tick", t.tick)
        .Add("tick_seconds", t.tick_seconds)
        .Add("max_txn_seconds", t.max_txn_seconds)
        .Add("commits", t.commits)
        .Add("validated_candidates", t.validated_candidates)
        .Add("installed", t.installed)
        .Add("rows_copied", t.rows_copied);
    if (ticks_json.size() > 1) ticks_json += ", ";
    ticks_json += o.ToString();
  }
  ticks_json += "]";

  bench::JsonObject result;
  result.Add("clients", kClients)
      .Add("blocking_stall_seconds", b.stall_seconds)
      .Add("blocking_max_txn_seconds", b.max_txn_seconds)
      .Add("blocking_build_seconds", b.build_seconds)
      .Add("blocking_commits", b.commits)
      .Add("blocking_errors", b.errors)
      .Add("online_swap_stall_seconds", o.stall_seconds)
      .Add("online_max_txn_seconds", o.max_txn_seconds)
      .Add("online_build_seconds", o.build_seconds)
      .Add("online_commits", o.commits)
      .Add("online_errors", o.errors)
      .Add("online_delta_applied", o.delta_applied)
      .Add("online_rows_per_second", online_throughput)
      .Add("index_rows", o.rows)
      .AddRaw("ticks", ticks_json)
      .AddRaw("run_meta", bench::RunMetadataJson(kClients));
  if (bench::WriteJsonSection("BENCH_results.json", "online_build",
                              result)) {
    std::printf("wrote BENCH_results.json [online_build]\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  return 0;
}
