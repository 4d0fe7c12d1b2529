// Clone validation demo (Sec. VII-B, line 3 of Algorithm 1): before an
// index change reaches production, AIM materializes the candidates on a
// clone, replays the workload on it with and without them, and keeps only
// the indexes the clone's plans actually use without regressing a query
// beyond λ₃. This shows what that decides for one useful index and one
// that only adds write work.
//
//   $ ./shadow_validation
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/clone_validation.h"
#include "workload/demo.h"

using namespace aim;

namespace {

std::string Describe(const storage::Database& db,
                     const catalog::IndexDef& def) {
  const catalog::TableDef& table = db.catalog().table(def.table);
  std::string text = table.name + "(";
  for (size_t i = 0; i < def.columns.size(); ++i) {
    if (i > 0) text += ", ";
    text += table.columns[def.columns[i]].name;
  }
  return text + ")";
}

core::CandidateIndex Candidate(std::vector<catalog::ColumnId> columns) {
  core::CandidateIndex c;
  c.def.table = 0;
  c.def.columns = std::move(columns);
  return c;
}

}  // namespace

int main() {
  storage::Database production = workload::MakeUsersDemoDb(20000);

  workload::Workload w;
  (void)w.Add("SELECT id FROM users WHERE org_id = 5", 10.0);
  (void)w.Add("SELECT email FROM users WHERE status = 2 AND score > 900",
              5.0);
  (void)w.Add(
      "UPDATE users SET score = 0 WHERE created_at BETWEEN 100 AND 120",
      20.0);
  std::vector<core::SelectedQuery> queries;
  for (const workload::Query& q : w.queries) {
    core::SelectedQuery sq;
    sq.query = &q;
    queries.push_back(sq);
  }

  // The proposed change: one index the reads need, and one that only the
  // UPDATE touches — and only to maintain it.
  const std::vector<core::CandidateIndex> proposed = {
      Candidate({1}),         // org_id
      Candidate({3, 4, 5}),   // score, created_at, email
  };
  Result<core::CloneValidationResult> validated = core::ValidateOnClone(
      production, proposed, queries, optimizer::CostModel());
  if (!validated.ok()) {
    std::fprintf(stderr, "validation failed: %s\n",
                 validated.status().ToString().c_str());
    return 1;
  }
  const core::CloneValidationResult& r = validated.ValueOrDie();

  std::printf("replayed %zu executions on the clone (%zu failed)\n\n",
              r.executed, r.failed);
  std::printf("%-55s %12s %12s\n", "query", "cpu before", "cpu after");
  for (const core::QueryValidation& v : r.per_query) {
    const char* text = "?";
    for (const workload::Query& q : w.queries) {
      if (q.fingerprint == v.fingerprint) text = q.normalized_sql.c_str();
    }
    std::printf("%-55.55s %12.6f %12.6f %s\n", text, v.cpu_before,
                v.cpu_after,
                v.regressed   ? "<-- REGRESSION"
                : v.improved ? "improved"
                             : "");
  }

  std::printf("\nEq. 3 (some query improved by >= lambda2): %s\n",
              r.any_query_improved ? "yes" : "no");
  std::printf("Eq. 4 (no query regressed beyond lambda3): %s\n\n",
              r.no_regressions ? "yes" : "no");
  for (const core::CandidateIndex& c : r.accepted) {
    std::printf("accepted:        %s\n",
                Describe(production, c.def).c_str());
  }
  for (const core::CandidateIndex& c : r.rejected_unused) {
    std::printf("rejected unused: %s (no replayed plan reads it)\n",
                Describe(production, c.def).c_str());
  }
  std::printf("\nproduction untouched: %zu indexes\n",
              production.catalog().AllIndexes(false, false).size());
  return 0;
}
