// Tier-1 tests for the spill-to-disk operators (DESIGN.md §14).
//
// The fixture pins work_mem at its 64 KiB floor by attaching the database
// to a VM with a 1% memory share of a Small machine, then loads a table
// big enough that ORDER BY, hash join, and GROUP BY all cross the spill
// trigger. The contract under test: spilling changes *where* intermediate
// state lives, never *what* a query returns or charges — rows and
// simulated charges must match the in-memory path bit-for-bit on both
// engines, and aborted queries must release every spill file.

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "exec/database.h"
#include "exec/spill.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"

namespace vdb::exec {
namespace {

using catalog::Column;
using catalog::Schema;
using catalog::Tuple;
using catalog::TupleToString;
using catalog::TypeId;
using catalog::Value;

// 5000 rows x ~130 modeled bytes ≈ 640 KB of working set against a
// 64 KiB work_mem: every blocking operator over the full table spills,
// while a `id < 200` slice stays comfortably in memory. Row count is
// also > 4096 so the Grace probe loop crosses at least one budget poll.
constexpr int kBigRows = 5000;

class SpillTest : public ::testing::Test {
 protected:
  SpillTest()
      : vm_("vm", sim::MachineSpec::Small(), sim::HypervisorModel::Ideal(),
            // 1% of 64 MiB → 640 KiB of VM memory → work_mem hits its
            // 64 KiB floor (DbInstanceConfig::FromVm).
            sim::ResourceShare(1.0, 0.01, 1.0)) {
    Populate(&db_);
    VDB_CHECK(db_.config().work_mem_bytes == 64 * 1024)
        << "fixture expects work_mem at the floor, got "
        << db_.config().work_mem_bytes;
  }

  void Populate(Database* db) {
    VDB_CHECK_OK(db->ApplyVmConfig(vm_));
    auto big = db->catalog()->CreateTable(
        "big", Schema({Column("id", TypeId::kInt64),
                       Column("grp", TypeId::kInt64),
                       Column("val", TypeId::kDouble),
                       Column("pad", TypeId::kString)}));
    VDB_CHECK(big.ok());
    for (int i = 0; i < kBigRows; ++i) {
      // Deterministic but non-monotonic values so sorts actually permute.
      const int64_t key = static_cast<int64_t>((i * 2654435761u) % 100003);
      VDB_CHECK_OK(db->catalog()->Insert(
          *big, Tuple{Value::Int64(i), Value::Int64(i % 37),
                      Value::Double(static_cast<double>(key) / 7.0),
                      Value::String("pad-" + std::to_string(key) +
                                    "-xxxxxxxxxxxxxxxx")}));
    }
    auto tiny = db->catalog()->CreateTable(
        "tiny", Schema({Column("id", TypeId::kInt64),
                        Column("tag", TypeId::kString)}));
    VDB_CHECK(tiny.ok());
    for (int i = 0; i < 40; ++i) {
      VDB_CHECK_OK(db->catalog()->Insert(
          *tiny, Tuple{Value::Int64(i % 37),
                       Value::String("tag-" + std::to_string(i))}));
    }
    VDB_CHECK_OK(db->catalog()->AnalyzeAll());
  }

  // Cold run: fixed engine, no budget, caches dropped, so repeated runs
  // of the same query are bit-reproducible.
  QueryResult RunCold(Database* db, ExecMode mode, const std::string& sql) {
    db->set_exec_mode(mode);
    db->set_query_options(QueryOptions());
    VDB_CHECK_OK(db->DropCaches());
    auto result = db->Execute(sql, vm_);
    VDB_CHECK(result.ok()) << sql << ": " << result.status();
    return *std::move(result);
  }

  static std::vector<std::string> RowStrings(const QueryResult& r) {
    std::vector<std::string> out;
    out.reserve(r.rows.size());
    for (const Tuple& t : r.rows) out.push_back(TupleToString(t));
    return out;
  }

  static void ExpectNear(double x, double y, const char* what) {
    EXPECT_LE(std::fabs(x - y),
              1e-12 + 1e-9 * std::max(std::fabs(x), std::fabs(y)))
        << what << ": " << x << " vs " << y;
  }

  // Row engine vs serial batch engine: identical rows, near-equal charges
  // (FP summation order differs), identical physical reads.
  void ExpectEnginesAgree(Database* db, const std::string& sql,
                          size_t expect_rows) {
    const QueryResult row = RunCold(db, ExecMode::kRow, sql);
    const QueryResult batch = RunCold(db, ExecMode::kBatch, sql);
    EXPECT_EQ(row.rows.size(), expect_rows) << sql;
    EXPECT_EQ(RowStrings(row), RowStrings(batch)) << sql;
    ExpectNear(row.cpu_seconds, batch.cpu_seconds, "cpu_seconds");
    ExpectNear(row.io_seconds, batch.io_seconds, "io_seconds");
    EXPECT_EQ(row.physical_reads, batch.physical_reads) << sql;
  }

  sim::VirtualMachine vm_;
  Database db_;
};

// --- SpillFile / SpillManager mechanics ------------------------------------

TEST_F(SpillTest, SpillFileRoundTripsValuesBitwise) {
  SpillManager* spill = db_.spill_manager();
  ASSERT_NE(spill, nullptr);
  const uint64_t created_before = spill->files_created();
  {
    auto file = spill->NewFile("unit");
    VDB_CHECK(file.ok());
    EXPECT_EQ(spill->live_files(), 1u);
    const Tuple rows[] = {
        Tuple{Value::Int64(-7), Value::Double(0.1 + 0.2),
              Value::String("spill"), Value::Null(TypeId::kInt64)},
        Tuple{Value::Bool(true), Value::Date(12345),
              Value::String(std::string(300, 'x')),
              Value::Double(-0.0)},
    };
    for (uint64_t i = 0; i < 2; ++i) {
      VDB_CHECK_OK((*file)->WriteRow(i * 41, rows[i]));
    }
    VDB_CHECK_OK((*file)->Rewind());
    for (uint64_t i = 0; i < 2; ++i) {
      uint64_t index = 0;
      Tuple row;
      auto more = (*file)->ReadRow(&index, &row);
      VDB_CHECK(more.ok());
      ASSERT_TRUE(*more);
      EXPECT_EQ(index, i * 41);
      EXPECT_EQ(TupleToString(row), TupleToString(rows[i]));
    }
    uint64_t index = 0;
    Tuple row;
    auto more = (*file)->ReadRow(&index, &row);
    VDB_CHECK(more.ok());
    EXPECT_FALSE(*more);  // end of file
  }
  // RAII: dropping the handle unlinks the file.
  EXPECT_EQ(spill->live_files(), 0u);
  EXPECT_EQ(spill->files_created(), created_before + 1);
}

// --- Spill triggering ------------------------------------------------------

TEST_F(SpillTest, SortAboveTriggerSpillsBelowTriggerDoesNot) {
  SpillManager* spill = db_.spill_manager();
  ASSERT_NE(spill, nullptr);

  uint64_t before = spill->files_created();
  RunCold(&db_, ExecMode::kRow, "SELECT id, pad FROM big ORDER BY val, id");
  EXPECT_GT(spill->files_created(), before) << "full-table sort must spill";
  EXPECT_EQ(spill->live_files(), 0u) << "completed query leaked files";

  before = spill->files_created();
  RunCold(&db_, ExecMode::kRow,
          "SELECT id, pad FROM big WHERE id < 200 ORDER BY val, id");
  EXPECT_EQ(spill->files_created(), before)
      << "200-row sort fits in work_mem and must not spill";
}

TEST_F(SpillTest, JoinAndAggregateSpill) {
  SpillManager* spill = db_.spill_manager();
  ASSERT_NE(spill, nullptr);

  uint64_t before = spill->files_created();
  RunCold(&db_, ExecMode::kRow,
          "SELECT a.id FROM big a JOIN big b ON a.id = b.id");
  EXPECT_GT(spill->files_created(), before)
      << "self-join build side exceeds work_mem and must spill";
  EXPECT_EQ(spill->live_files(), 0u);

  before = spill->files_created();
  RunCold(&db_, ExecMode::kRow, "SELECT id, SUM(val) FROM big GROUP BY id");
  EXPECT_GT(spill->files_created(), before)
      << "5000-group aggregate state exceeds work_mem and must spill";
  EXPECT_EQ(spill->live_files(), 0u);

  // The batch engine's aggregate spill is charge-only (it keeps its
  // in-memory table and charges the row engine's spill pass), so the
  // same query creates no files there — but see the parity tests below:
  // its charges still match the row engine's.
  before = spill->files_created();
  RunCold(&db_, ExecMode::kBatch, "SELECT id, SUM(val) FROM big GROUP BY id");
  EXPECT_EQ(spill->files_created(), before);
}

// --- Row/batch parity across the spill boundary ----------------------------

TEST_F(SpillTest, SpillingSortMatchesAcrossEngines) {
  ExpectEnginesAgree(&db_, "SELECT id, pad FROM big ORDER BY val, id",
                     kBigRows);
  // And straddle the trigger: the in-memory slice agrees too.
  ExpectEnginesAgree(
      &db_, "SELECT id, pad FROM big WHERE id < 200 ORDER BY val, id", 200);
}

TEST_F(SpillTest, SpillingJoinMatchesAcrossEngines) {
  ExpectEnginesAgree(&db_,
                     "SELECT a.id, b.pad FROM big a JOIN big b "
                     "ON a.id = b.id ORDER BY a.id",
                     kBigRows);
  // Join against the tiny build side stays in memory on the same data.
  ExpectEnginesAgree(&db_,
                     "SELECT b.id, t.tag FROM big b JOIN tiny t "
                     "ON b.grp = t.id WHERE b.id < 100 ORDER BY b.id, t.tag",
                     // grp 0..2 match two tiny rows, 3..36 one; with
                     // grp = id % 37 over id 0..99 that's 109 pairs.
                     109);
}

TEST_F(SpillTest, SpillingAggregateMatchesAcrossEngines) {
  // No ORDER BY: group emission order itself is part of the parity
  // contract (external agg returns groups in first-appearance order).
  ExpectEnginesAgree(&db_,
                     "SELECT id, COUNT(*), SUM(val), MIN(pad) "
                     "FROM big GROUP BY id",
                     kBigRows);
  ExpectEnginesAgree(&db_,
                     "SELECT grp, COUNT(*), SUM(val) FROM big "
                     "WHERE id < 200 GROUP BY grp",
                     37);
}

// --- VDB_SPILL=off: the charge-only model is bit-identical ------------------

TEST_F(SpillTest, SpillOffDatabaseMatchesBitwise) {
  ::setenv("VDB_SPILL", "off", 1);
  Database off_db;
  ::unsetenv("VDB_SPILL");
  ASSERT_EQ(off_db.spill_manager(), nullptr);
  Populate(&off_db);

  const std::string queries[] = {
      "SELECT id, pad FROM big ORDER BY val, id",
      "SELECT a.id, b.pad FROM big a JOIN big b ON a.id = b.id "
      "ORDER BY a.id",
      "SELECT id, COUNT(*), SUM(val) FROM big GROUP BY id",
  };
  for (const std::string& sql : queries) {
    for (const ExecMode mode : {ExecMode::kRow, ExecMode::kBatch}) {
      const QueryResult with = RunCold(&db_, mode, sql);
      const QueryResult without = RunCold(&off_db, mode, sql);
      EXPECT_EQ(RowStrings(with), RowStrings(without)) << sql;
      // Same engine, same data, spill mechanism on vs off: charges must
      // be *bitwise* equal — that is the charge-parity contract.
      EXPECT_EQ(with.cpu_seconds, without.cpu_seconds) << sql;
      EXPECT_EQ(with.io_seconds, without.io_seconds) << sql;
      EXPECT_EQ(with.physical_reads, without.physical_reads) << sql;
    }
  }
}

// --- Budget aborts release spill files --------------------------------------

TEST_F(SpillTest, BudgetAbortDuringSpillingJoinLeaksNothing) {
  SpillManager* spill = db_.spill_manager();
  ASSERT_NE(spill, nullptr);
  const std::string sql =
      "SELECT a.id, b.val FROM big a JOIN big b ON a.id = b.id";
  // Calibrate: simulated charges are deterministic, so half the full
  // query's CPU bill aborts mid-probe (the 5000-row probe loop polls the
  // budget every 4096 rows, after partitioning already created files).
  const QueryResult full = RunCold(&db_, ExecMode::kRow, sql);

  db_.set_exec_mode(ExecMode::kRow);
  QueryOptions options;
  options.budget.max_cpu_seconds = full.cpu_seconds * 0.5;
  db_.set_query_options(options);
  VDB_CHECK_OK(db_.DropCaches());
  const uint64_t created_before = spill->files_created();
  auto aborted = db_.Execute(sql, vm_);
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsBudgetExceeded())
      << aborted.status().ToString();
  EXPECT_GT(spill->files_created(), created_before)
      << "abort was expected to land after the join started spilling";
  EXPECT_EQ(spill->live_files(), 0u)
      << "aborted query leaked spill files";
  db_.set_query_options(QueryOptions());
}

}  // namespace
}  // namespace vdb::exec
