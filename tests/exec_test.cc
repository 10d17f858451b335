#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/vmm.h"

namespace vdb::exec {
namespace {

using catalog::Column;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;

/// Fixture with a small hand-populated database and a full-machine VM, so
/// query results can be checked against hand-computed answers.
class SqlExecTest : public ::testing::Test {
 protected:
  SqlExecTest()
      : vm_("vm", sim::MachineSpec::Small(), sim::HypervisorModel::Ideal(),
            sim::ResourceShare(1.0, 1.0, 1.0)) {
    VDB_CHECK_OK(db_.ApplyVmConfig(vm_));
    auto emp = db_.catalog()->CreateTable(
        "emp", Schema({Column("id", TypeId::kInt64),
                       Column("dept", TypeId::kInt64),
                       Column("salary", TypeId::kDouble),
                       Column("name", TypeId::kString)}));
    VDB_CHECK(emp.ok());
    // id, dept, salary, name
    const struct {
      int64_t id;
      int64_t dept;
      double salary;
      const char* name;
    } rows[] = {
        {1, 10, 1000, "alice"}, {2, 10, 2000, "bob"},
        {3, 20, 1500, "carol"}, {4, 20, 2500, "dave"},
        {5, 30, 3000, "erin"},  {6, 30, 500, "frank"},
    };
    for (const auto& r : rows) {
      VDB_CHECK_OK(db_.catalog()->Insert(
          *emp, Tuple{Value::Int64(r.id), Value::Int64(r.dept),
                      Value::Double(r.salary), Value::String(r.name)}));
    }
    auto dept = db_.catalog()->CreateTable(
        "dept", Schema({Column("did", TypeId::kInt64),
                        Column("dname", TypeId::kString)}));
    VDB_CHECK(dept.ok());
    for (const auto& [did, dname] :
         std::vector<std::pair<int64_t, const char*>>{
             {10, "eng"}, {20, "sales"}, {40, "empty"}}) {
      VDB_CHECK_OK(db_.catalog()->Insert(
          *dept, Tuple{Value::Int64(did), Value::String(dname)}));
    }
    // One row with NULLs.
    auto nullable = db_.catalog()->CreateTable(
        "n", Schema({Column("a", TypeId::kInt64),
                     Column("b", TypeId::kInt64)}));
    VDB_CHECK(nullable.ok());
    VDB_CHECK_OK(db_.catalog()->Insert(
        *nullable, Tuple{Value::Int64(1), Value::Int64(10)}));
    VDB_CHECK_OK(db_.catalog()->Insert(
        *nullable, Tuple{Value::Int64(2), Value::Null(TypeId::kInt64)}));
    VDB_CHECK_OK(db_.catalog()->Insert(
        *nullable, Tuple{Value::Null(TypeId::kInt64), Value::Int64(30)}));
    VDB_CHECK_OK(db_.catalog()->AnalyzeAll());
  }

  std::vector<Tuple> Rows(const std::string& sql) {
    auto result = db_.Execute(sql, vm_);
    VDB_CHECK(result.ok()) << sql << ": " << result.status();
    return std::move(result->rows);
  }

  // Flattens results to strings for easy comparison.
  std::vector<std::string> Strings(const std::string& sql) {
    std::vector<std::string> out;
    for (const Tuple& row : Rows(sql)) {
      out.push_back(catalog::TupleToString(row));
    }
    return out;
  }

  Database db_;
  sim::VirtualMachine vm_;
};

TEST_F(SqlExecTest, SelectAll) {
  auto rows = Rows("select id, name from emp");
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "alice");
}

TEST_F(SqlExecTest, WhereFilters) {
  auto rows = Rows("select name from emp where salary > 1500");
  ASSERT_EQ(rows.size(), 3u);
  std::vector<std::string> names;
  for (const Tuple& row : rows) names.push_back(row[0].AsString());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"bob", "dave", "erin"}));
}

TEST_F(SqlExecTest, Arithmetic) {
  auto rows = Rows("select salary * 2 + 1 from emp where id = 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 2001.0);
}

TEST_F(SqlExecTest, OrderByAndLimit) {
  auto rows =
      Rows("select name, salary from emp order by salary desc limit 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "erin");
  EXPECT_EQ(rows[1][0].AsString(), "dave");
}

TEST_F(SqlExecTest, OrderByAscendingStable) {
  auto rows = Rows("select id from emp order by dept asc, id desc");
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0][0].AsInt64(), 2);  // dept 10, id desc
  EXPECT_EQ(rows[1][0].AsInt64(), 1);
  EXPECT_EQ(rows[5][0].AsInt64(), 5);
}

TEST_F(SqlExecTest, GroupByAggregates) {
  auto rows = Rows(
      "select dept, count(*), sum(salary), avg(salary), min(salary), "
      "max(salary) from emp group by dept order by dept");
  ASSERT_EQ(rows.size(), 3u);
  // dept 10: count 2, sum 3000.
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[0][1].AsInt64(), 2);
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 3000.0);
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 1500.0);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(rows[0][5].AsDouble(), 2000.0);
  // dept 30: min 500, max 3000.
  EXPECT_DOUBLE_EQ(rows[2][4].AsDouble(), 500.0);
  EXPECT_DOUBLE_EQ(rows[2][5].AsDouble(), 3000.0);
}

TEST_F(SqlExecTest, GlobalAggregate) {
  auto rows = Rows("select count(*), sum(salary) from emp");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 6);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 10500.0);
}

TEST_F(SqlExecTest, GlobalAggregateOverEmptyInput) {
  auto rows = Rows("select count(*), sum(salary) from emp where id > 99");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(SqlExecTest, GroupedAggregateOverEmptyInputIsEmpty) {
  EXPECT_TRUE(
      Rows("select dept, count(*) from emp where id > 99 group by dept")
          .empty());
}

TEST_F(SqlExecTest, Having) {
  auto rows = Rows(
      "select dept from emp group by dept having sum(salary) > 3200 order "
      "by dept");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 20);
  EXPECT_EQ(rows[1][0].AsInt64(), 30);
}

TEST_F(SqlExecTest, CountDistinct) {
  auto rows = Rows("select count(distinct dept) from emp");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 3);
}

TEST_F(SqlExecTest, Distinct) {
  auto rows = Rows("select distinct dept from emp order by dept");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[2][0].AsInt64(), 30);
}

TEST_F(SqlExecTest, InnerJoin) {
  auto rows = Rows(
      "select name, dname from emp join dept on dept = did order by name");
  ASSERT_EQ(rows.size(), 4u);  // dept 30 has no dept row
  EXPECT_EQ(rows[0][0].AsString(), "alice");
  EXPECT_EQ(rows[0][1].AsString(), "eng");
  EXPECT_EQ(rows[3][0].AsString(), "dave");
  EXPECT_EQ(rows[3][1].AsString(), "sales");
}

TEST_F(SqlExecTest, LeftJoinPadsNulls) {
  auto rows = Rows(
      "select did, name from dept left join emp on dept = did order by "
      "did");
  // eng: 2 matches, sales: 2 matches, empty: padded.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[4][0].AsInt64(), 40);
  EXPECT_TRUE(rows[4][1].is_null());
}

TEST_F(SqlExecTest, Q13ShapedLeftJoinCount) {
  // count(column) over a left join counts only matched rows.
  auto rows = Rows(
      "select did, count(id) as c from dept left join emp on dept = did "
      "group by did order by did");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsInt64(), 2);  // dept 10
  EXPECT_EQ(rows[1][1].AsInt64(), 2);  // dept 20
  EXPECT_EQ(rows[2][1].AsInt64(), 0);  // dept 40: padded row, count(id)=0
}

TEST_F(SqlExecTest, ExistsSemiJoin) {
  auto rows = Rows(
      "select dname from dept where exists (select * from emp where dept "
      "= did and salary > 1800) order by dname");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "eng");
  EXPECT_EQ(rows[1][0].AsString(), "sales");
}

TEST_F(SqlExecTest, NotExistsAntiJoin) {
  auto rows = Rows(
      "select dname from dept where not exists (select * from emp where "
      "dept = did)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "empty");
}

TEST_F(SqlExecTest, DerivedTable) {
  auto rows = Rows(
      "select c from (select dept, count(*) from emp group by dept) as g "
      "(d, c) where d < 25 order by c desc");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 2);
}

TEST_F(SqlExecTest, LikeAndInPredicates) {
  auto rows = Rows(
      "select name from emp where name like '%a%' and dept in (10, 20) "
      "order by name");
  // alice (10), carol (20), dave (20); bob has no 'a'.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsString(), "alice");
}

TEST_F(SqlExecTest, CaseExpression) {
  auto rows = Rows(
      "select name, case when salary >= 2500 then 'high' when salary >= "
      "1500 then 'mid' else 'low' end from emp order by id");
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0][1].AsString(), "low");
  EXPECT_EQ(rows[2][1].AsString(), "mid");
  EXPECT_EQ(rows[4][1].AsString(), "high");
}

TEST_F(SqlExecTest, NullSemanticsInWhere) {
  // b = 30 doesn't match NULL; IS NULL does.
  auto rows = Rows("select a from n where b is null");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 2);
  rows = Rows("select b from n where a is not null order by a");
  ASSERT_EQ(rows.size(), 2u);
  // Comparisons with NULL are never true.
  EXPECT_TRUE(Rows("select a from n where b <> 10 and b = b").size() == 1);
}

TEST_F(SqlExecTest, NullsNeverJoin) {
  auto rows = Rows(
      "select n1.a from n n1 join n n2 on n1.b = n2.b order by n1.a");
  // Only rows with non-null b can join: b=10 and b=30, each matches itself.
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(SqlExecTest, BetweenBounds) {
  auto rows = Rows(
      "select id from emp where salary between 1500 and 2500 order by id");
  ASSERT_EQ(rows.size(), 3u);  // 1500, 2000, 2500 inclusive
}

TEST_F(SqlExecTest, ElapsedTimePositiveAndDeterministic) {
  auto r1 = db_.Execute("select count(*) from emp", vm_);
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(r1->elapsed_seconds, 0.0);
  ASSERT_TRUE(db_.DropCaches().ok());
  auto r2 = db_.Execute("select count(*) from emp", vm_);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(db_.DropCaches().ok());
  auto r3 = db_.Execute("select count(*) from emp", vm_);
  ASSERT_TRUE(r3.ok());
  EXPECT_DOUBLE_EQ(r2->elapsed_seconds, r3->elapsed_seconds);
}

TEST_F(SqlExecTest, WarmCacheFasterThanCold) {
  ASSERT_TRUE(db_.DropCaches().ok());
  auto cold = db_.Execute("select sum(salary) from emp", vm_);
  ASSERT_TRUE(cold.ok());
  auto warm = db_.Execute("select sum(salary) from emp", vm_);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->elapsed_seconds, cold->elapsed_seconds);
  EXPECT_EQ(warm->physical_reads, 0u);
}

// Execution times must respond to the VM's resource allocation: less CPU
// slows CPU-bound work; less I/O slows cold scans.
TEST_F(SqlExecTest, TimeRespondsToCpuShare) {
  sim::VirtualMachine fast("fast", sim::MachineSpec::Small(),
                           sim::HypervisorModel::Ideal(),
                           sim::ResourceShare(0.75, 1.0, 1.0));
  sim::VirtualMachine slow("slow", sim::MachineSpec::Small(),
                           sim::HypervisorModel::Ideal(),
                           sim::ResourceShare(0.25, 1.0, 1.0));
  // Warm cache so the query is CPU-bound.
  (void)Rows("select count(*) from emp where name like '%a%'");
  auto fast_result =
      db_.Execute("select count(*) from emp where name like '%a%'", fast);
  auto slow_result =
      db_.Execute("select count(*) from emp where name like '%a%'", slow);
  ASSERT_TRUE(fast_result.ok());
  ASSERT_TRUE(slow_result.ok());
  EXPECT_GT(slow_result->elapsed_seconds,
            2.0 * fast_result->elapsed_seconds);
}

TEST_F(SqlExecTest, SemanticsIndependentOfAllocation) {
  sim::VirtualMachine small_vm("s", sim::MachineSpec::Small(),
                               sim::HypervisorModel::XenLike(),
                               sim::ResourceShare(0.25, 0.25, 0.25));
  auto full = db_.Execute(
      "select dept, count(*) from emp group by dept order by dept", vm_);
  auto constrained = db_.Execute(
      "select dept, count(*) from emp group by dept order by dept",
      small_vm);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(constrained.ok());
  ASSERT_EQ(full->rows.size(), constrained->rows.size());
  for (size_t i = 0; i < full->rows.size(); ++i) {
    EXPECT_EQ(catalog::TupleToString(full->rows[i]),
              catalog::TupleToString(constrained->rows[i]));
  }
}

TEST_F(SqlExecTest, InSubquerySemiJoin) {
  auto rows = Rows(
      "select dname from dept where did in (select dept from emp where "
      "salary > 1800) order by dname");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "eng");
  EXPECT_EQ(rows[1][0].AsString(), "sales");
}

TEST_F(SqlExecTest, NotInSubqueryAntiJoin) {
  auto rows = Rows(
      "select dname from dept where did not in (select dept from emp)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "empty");
}

TEST_F(SqlExecTest, InSubqueryDuplicatesDontMultiply) {
  // Semi-join semantics: each outer row appears at most once even though
  // the subquery yields duplicate dept values.
  auto rows = Rows(
      "select did from dept where did in (select dept from emp) order by "
      "did");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[1][0].AsInt64(), 20);
}

TEST_F(SqlExecTest, InSubqueryArityError) {
  auto result =
      db_.Execute("select * from dept where did in (select id, dept from "
                  "emp)",
                  vm_);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(SqlExecTest, TopNMatchesSortPlusLimitSemantics) {
  // ORDER BY + LIMIT is fused into TopN by the optimizer; results must
  // equal the full ordering's prefix.
  auto limited =
      Rows("select id, salary from emp order by salary desc, id limit 3");
  auto full = Rows("select id, salary from emp order by salary desc, id");
  ASSERT_EQ(limited.size(), 3u);
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i][0].AsInt64(), full[i][0].AsInt64()) << i;
  }
}

TEST_F(SqlExecTest, ScalarSubqueryComparison) {
  // avg(salary) = 1750; employees above it: bob(2000), dave(2500),
  // erin(3000).
  auto rows = Rows(
      "select name from emp where salary > (select avg(salary) from emp) "
      "order by name");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsString(), "bob");
  EXPECT_EQ(rows[1][0].AsString(), "dave");
  EXPECT_EQ(rows[2][0].AsString(), "erin");
}

TEST_F(SqlExecTest, ScalarSubqueryInArithmetic) {
  auto rows = Rows(
      "select count(*) from emp where salary * 2 < (select max(salary) "
      "from emp) + 100");
  ASSERT_EQ(rows.size(), 1u);
  // 2*salary < 3100 -> salaries 1000, 1500, 500 -> 3 rows.
  EXPECT_EQ(rows[0][0].AsInt64(), 3);
}

TEST_F(SqlExecTest, ScalarSubqueryRequiresGlobalAggregate) {
  auto result = db_.Execute(
      "select * from emp where salary > (select salary from emp)", vm_);
  EXPECT_TRUE(result.status().IsNotSupported());
  result = db_.Execute(
      "select * from emp where salary > (select max(salary) from emp "
      "group by dept)",
      vm_);
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST_F(SqlExecTest, SortAboveReorderedJoinKeepsColumnOrder) {
  // Regression: the optimizer may reorder a join block below an ORDER BY;
  // pass-through operators (Sort/TopN) must advertise the reordered
  // physical column order or projections above resolve the wrong slots.
  auto rows = Rows(
      "select name, dname from emp, dept where dept = did order by name");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].AsString(), "alice");
  EXPECT_EQ(rows[0][1].AsString(), "eng");
  auto top = Rows(
      "select name, dname from emp, dept where dept = did order by name "
      "limit 2");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0][0].AsString(), "alice");
  EXPECT_EQ(top[0][1].AsString(), "eng");
  EXPECT_EQ(top[1][0].AsString(), "bob");
}

// Pins the row engine's page-scan traffic on a buffer pool smaller than
// the table, so every fetch past the pool's capacity evicts: a cold full
// scan with a filter, and a cold LIMIT scan that stops mid-table. The
// pool counters and charges were recorded from the row scan that copied
// each page out of the pool and unpinned it at once; reading the pinned
// frame instead must leave every FetchPage/UnpinPage in the same order.
// The self-join scans the table twice in one query. After each query no
// page may stay pinned, the LIMIT's early exit included.
TEST(RowScanTrafficTest, ColdScansOnASmallPoolArePinned) {
  sim::VirtualMachine vm("vm", sim::MachineSpec::Small(),
                         sim::HypervisorModel::Ideal(),
                         sim::ResourceShare(1.0, 1.0, 1.0));
  Database db;
  ASSERT_TRUE(db.ApplyVmConfig(vm).ok());
  auto table = db.catalog()->CreateTable(
      "t", Schema({Column("id", TypeId::kInt64), Column("grp", TypeId::kInt64),
                   Column("pad", TypeId::kString)}));
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(db.catalog()
                    ->Insert(*table, Tuple{Value::Int64(i),
                                           Value::Int64((i * 7919) % 13),
                                           Value::String(
                                               "pad-" + std::to_string(i) +
                                               "-xxxxxxxxxxxxxxxxxxxxxxxx")})
                    .ok());
  }
  ASSERT_TRUE(db.catalog()->AnalyzeAll().ok());
  ASSERT_TRUE(db.buffer_pool()->Resize(16).ok());
  ASSERT_EQ((*table)->heap->NumPages(), 30u);
  db.set_exec_mode(ExecMode::kRow);

  struct Expected {
    const char* sql;
    size_t rows;
    uint64_t hits;
    uint64_t sequential_misses;
    uint64_t random_misses;
    uint64_t page_writes;
    uint64_t physical_reads;
    double cpu_seconds;
    double io_seconds;
    double elapsed_seconds;
  };
  const Expected cases[] = {
      {"select id, pad from t where grp = 3", 308, 0, 30, 0, 0, 30,
       0.01772399999999854, 0.02343750000000001, 0.041161500000001773},
      {"select id, pad from t limit 3000", 3000, 0, 22, 0, 0, 22,
       0.017999999999998888, 0.017187500000000005, 0.035187500000002286},
      {"select count(*) from t a join t b on a.id = b.id", 1, 0, 60, 0, 0,
       60, 0.087606000000003334, 0.046874999999999958, 0.13448100000006466},
  };
  for (const Expected& expected : cases) {
    SCOPED_TRACE(expected.sql);
    ASSERT_TRUE(db.DropCaches().ok());
    db.buffer_pool()->ResetStats();
    auto result = db.Execute(expected.sql, vm);
    ASSERT_TRUE(result.ok()) << result.status();
    // EvictAll fails while any frame is pinned.
    EXPECT_TRUE(db.DropCaches().ok());
    const storage::BufferPoolStats& stats = db.buffer_pool()->stats();
    EXPECT_EQ(result->rows.size(), expected.rows);
    EXPECT_EQ(stats.hits, expected.hits);
    EXPECT_EQ(stats.sequential_misses, expected.sequential_misses);
    EXPECT_EQ(stats.random_misses, expected.random_misses);
    EXPECT_EQ(stats.page_writes, expected.page_writes);
    EXPECT_EQ(result->physical_reads, expected.physical_reads);
    EXPECT_DOUBLE_EQ(result->cpu_seconds, expected.cpu_seconds);
    EXPECT_DOUBLE_EQ(result->io_seconds, expected.io_seconds);
    EXPECT_DOUBLE_EQ(result->elapsed_seconds, expected.elapsed_seconds);
  }
}

}  // namespace
}  // namespace vdb::exec
