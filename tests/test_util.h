#ifndef AIM_TESTS_TEST_UTIL_H_
#define AIM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/continuous.h"
#include "executor/executor.h"
#include "sql/parser.h"
#include "storage/data_generator.h"
#include "storage/database.h"
#include "workload/demo.h"
#include "workload/workload.h"

namespace aim::testing {

/// Single-table fixture:
///   users(id PK, org_id, status, score, created_at, email, payload)
/// org_id ndv 100, status ndv 5, score ndv 1000 (zipf), created_at and
/// email quasi-unique.
inline storage::Database MakeUsersDb(uint64_t rows = 2000,
                                     uint64_t seed = 7) {
  return workload::MakeUsersDemoDb(rows, seed);
}

/// users + orders(id PK, user_id, status, total, day) for join tests.
inline storage::Database MakeOrdersDb(uint64_t users = 1000,
                                      uint64_t orders = 5000,
                                      uint64_t seed = 9) {
  return workload::MakeOrdersDemoDb(users, orders, seed);
}

/// Parses or records a test failure (for test setup).
inline sql::Statement MustParse(const std::string& text) {
  Result<sql::Statement> r = sql::Parse(text);
  if (!r.ok()) {
    ADD_FAILURE() << "parse failed: " << r.status().ToString()
                  << " sql=" << text;
    return sql::Statement{};
  }
  return r.MoveValue();
}

/// Makes a workload query or records a test failure.
inline workload::Query MustQuery(const std::string& text,
                                 double weight = 1.0) {
  Result<workload::Query> r = workload::MakeQuery(text, weight);
  if (!r.ok()) {
    ADD_FAILURE() << "MakeQuery failed: " << r.status().ToString()
                  << " sql=" << text;
    return workload::Query{};
  }
  return r.MoveValue();
}

/// Order-insensitive result fingerprint: the multiset of rows rendered
/// as SQL literals. Two configurations agree on a query iff their
/// fingerprints match — the oracle and differential suites' comparison
/// key.
inline std::multiset<std::string> RowFingerprints(
    const executor::ExecuteResult& result) {
  std::multiset<std::string> keys;
  for (const storage::Row& row : result.rows) {
    std::string k;
    for (const sql::Value& v : row) k += v.ToSqlLiteral() + "|";
    keys.insert(std::move(k));
  }
  return keys;
}

/// Everything one tuner interval decided and measured, plus the run's
/// cache activity: the transcript differential tuner tests compare.
/// Indexes are named by (table, key columns), never by id, so catalogs
/// that number their slots differently still compare equal. Leaves out
/// wall-clock fields and the tuner-side bookkeeping of its own carried
/// cache (`cache_entries_carried`, `cache_invalidated`), which describes a
/// cache a lending caller replaces.
inline std::string IntervalSignature(const core::IntervalReport& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "degraded=" << r.degraded << " error=" << r.error.ToString()
      << "\n";
  auto def = [&out](const char* what, const catalog::IndexDef& d) {
    out << what << " t" << d.table;
    for (catalog::ColumnId c : d.columns) out << "," << c;
  };
  for (const core::CandidateIndex& c : r.aim.recommended) {
    def("applied", c.def);
    out << " b=" << c.benefit << " m=" << c.maintenance << "\n";
  }
  for (const catalog::IndexDef& d : r.dropped) {
    def("dropped", d);
    out << "\n";
  }
  for (const auto& [old_def, new_def] : r.shrunk) {
    def("shrunk", old_def);
    def(" to", new_def);
    out << "\n";
  }
  for (const core::QueryValidation& q : r.aim.validation.per_query) {
    out << "q " << q.fingerprint << " " << q.cpu_before << " "
        << q.cpu_after << " " << q.regressed << q.improved << "\n";
  }
  const core::AimRunStats& st = r.aim.stats;
  out << "whatif=" << st.what_if_calls << " hits=" << st.cache_hits
      << " misses=" << st.cache_misses << " evict=" << st.cache_evictions
      << " at_start=" << st.cache_entries_at_start
      << " candidates=" << st.candidates_evaluated
      << " clusters=" << st.candgen_clusters_total << "/"
      << st.candgen_clusters_reused << "/" << st.candgen_clusters_recomputed
      << "\n";
  return out.str();
}

}  // namespace aim::testing

#endif  // AIM_TESTS_TEST_UTIL_H_
