// Tier-1 corpus for the differential-testing subsystem (src/testing/).
// Runs a small, fixed set of seeds through the generator -> engine vs.
// reference-oracle pipeline plus one metamorphic sweep, so every CI run
// exercises the fuzzer end to end. The scheduled CI campaign and
// `tools/vdb_fuzz` cover wide seed ranges; this keeps the bounded corpus
// cheap enough for `ctest -L tier1`. One hand-built case checks index
// scans against the oracle after deletes, which the generator never makes.
//
// Every failure message includes the seed and a reproduction command.
// Set VDB_TEST_SEED=<n> to re-run the differential corpus on one
// specific seed (e.g. to bisect a failure from the CI campaign).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "sql/parser.h"
#include "testing/differential.h"
#include "testing/metamorphic.h"
#include "testing/oracle.h"

namespace vdb::fuzz {
namespace {

// Seeds exercised on every CI run. Chosen as a spread, not for any known
// property; historical engine bugs (double-literal round-trip, dropped
// derived-table column aliases, swapped-join output order) all reproduced
// within this range.
const uint64_t kCorpusSeeds[] = {0, 1, 2, 3, 4, 7, 9, 11, 16, 23};

// VDB_TEST_SEED overrides the corpus with a single seed.
std::vector<uint64_t> CorpusSeeds() {
  if (const char* env = std::getenv("VDB_TEST_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  return std::vector<uint64_t>(std::begin(kCorpusSeeds),
                               std::end(kCorpusSeeds));
}

TEST(DifferentialCorpus, EngineMatchesOracle) {
  DifferentialOptions options;
  CampaignStats stats;
  for (uint64_t seed : CorpusSeeds()) {
    FailureReport failure;
    const bool failed = RunDifferentialSeed(seed, options, &stats, &failure);
    ASSERT_FALSE(failed) << "seed " << seed << " failed:\n"
                         << failure.ToString();
  }
  // The corpus must actually compare results, not skip everything.
  EXPECT_GT(stats.matched, 0u) << stats.ToString();
  SCOPED_TRACE(stats.ToString());
}

TEST(DifferentialCorpus, MetamorphicInvariantsHold) {
  uint64_t seed = 0;
  if (const char* env = std::getenv("VDB_TEST_SEED")) {
    seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  const std::vector<std::string> violations = RunMetamorphicChecks(seed);
  for (const std::string& violation : violations) {
    ADD_FAILURE() << "seed " << seed << ": " << violation
                  << "\nrepro: vdb_fuzz --seed " << seed
                  << " --mode metamorphic";
  }
}

std::vector<std::string> SortedRows(const std::vector<catalog::Tuple>& rows) {
  std::vector<std::string> out;
  for (const catalog::Tuple& row : rows) {
    out.push_back(catalog::TupleToString(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A deleted record must leave every index of its table: an index scan that
// reaches a deleted record id fails the whole query.
TEST(IndexedDelete, IndexScansMatchOracleAfterDeletes) {
  exec::Database db;
  const sim::VirtualMachine vm("vm", sim::MachineSpec::Small(),
                               sim::HypervisorModel::Ideal(),
                               sim::ResourceShare(1.0, 1.0, 1.0));
  ASSERT_TRUE(db.ApplyVmConfig(vm).ok());
  datagen::ColumnSpec key;
  key.name = "k";
  key.distribution = datagen::Distribution::kSequential;
  datagen::ColumnSpec val;
  val.name = "v";
  val.distribution = datagen::Distribution::kUniform;
  val.min_value = 0;
  val.max_value = 99;
  datagen::ColumnSpec txt;
  txt.name = "s";
  txt.type = catalog::TypeId::kString;
  txt.distribution = datagen::Distribution::kRandomText;
  txt.string_length = 30;
  ASSERT_TRUE(
      datagen::GenerateTable(db.catalog(), "big", {key, val, txt}, 20000, 3)
          .ok());
  ASSERT_TRUE(db.catalog()->CreateIndex("big_k", "big", "k").ok());
  ASSERT_TRUE(db.catalog()->CreateIndex("big_v", "big", "v").ok());
  ASSERT_TRUE(db.catalog()->AnalyzeAll().ok());

  Result<catalog::TableInfo*> table = db.catalog()->GetTable("big");
  ASSERT_TRUE(table.ok());
  std::vector<storage::RecordId> doomed;
  for (auto it = (*table)->heap->Begin(); it.Valid(); it.Next()) {
    Result<catalog::Tuple> tuple =
        catalog::DeserializeTuple(it.record(), (*table)->schema);
    ASSERT_TRUE(tuple.ok());
    const int64_t k = (*tuple)[0].AsInt64();
    if (k == 101 || k == 12345) doomed.push_back(it.rid());
  }
  ASSERT_EQ(doomed.size(), 2u);
  for (storage::RecordId rid : doomed) {
    ASSERT_TRUE(db.catalog()->Delete(*table, rid).ok());
  }

  // `k` is clustered, so with zone maps on a skip scan would beat the
  // index; off, both lookups plan as index scans over big_k.
  db.set_zone_maps_enabled(false);
  ReferenceEvaluator oracle(db.catalog());
  const struct {
    std::string sql;
    size_t rows;
  } lookups[] = {{"select v from big where k = 12345", 0},
                 {"select k, v from big where k between 100 and 102", 2}};
  for (const auto& [sql, rows] : lookups) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    Result<RefResult> expected = oracle.Evaluate(**stmt);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(expected->rows.size(), rows) << sql;
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch}) {
      db.set_exec_mode(mode);
      Result<exec::QueryResult> result = db.Execute(sql, vm);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      EXPECT_NE(result->plan_text.find("IndexScan(big via big_k,"),
                std::string::npos)
          << result->plan_text;
      EXPECT_EQ(SortedRows(result->rows), SortedRows(expected->rows)) << sql;
    }
  }
}

}  // namespace
}  // namespace vdb::fuzz
