// Cardinality-estimation quality tests: the optimizer's row estimates for
// a battery of TPC-H predicates must stay within a bounded q-error of the
// true result sizes. Ranking-quality in the paper's method ultimately
// rests on these estimates being sane.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "datagen/tpch.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"

namespace vdb {
namespace {

struct Case {
  const char* name;  // stable label: names the ctest case and GetParam()
  const char* sql;
  double max_q_error;  // max(est/actual, actual/est) allowed
};

// Without this, gtest prints a Case as its raw bytes, and the bytes of
// `sql` are a string-literal address that moves with every run under
// ASLR; gtest_discover_tests would then name each case differently on
// every build.
void PrintTo(const Case& test_case, std::ostream* os) {
  *os << test_case.name;
}

class CardinalityTest : public ::testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() {
    db_ = new exec::Database();
    vm_ = new sim::VirtualMachine(
        "vm", sim::MachineSpec::PaperTestbed(),
        sim::HypervisorModel::XenLike(), sim::ResourceShare(0.5, 0.5, 0.5));
    datagen::TpchConfig config;
    config.scale_factor = 0.01;
    VDB_CHECK_OK(datagen::GenerateTpch(db_->catalog(), config));
    VDB_CHECK_OK(db_->ApplyVmConfig(*vm_));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete vm_;
  }

  static exec::Database* db_;
  static sim::VirtualMachine* vm_;
};

exec::Database* CardinalityTest::db_ = nullptr;
sim::VirtualMachine* CardinalityTest::vm_ = nullptr;

TEST_P(CardinalityTest, QErrorBounded) {
  const Case test_case = GetParam();
  auto plan = db_->Prepare(test_case.sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = db_->ExecutePlan(**plan, *vm_);
  ASSERT_TRUE(result.ok()) << result.status();
  const double actual =
      std::max<double>(1.0, static_cast<double>(result->rows.size()));
  const double estimated = std::max(1.0, (*plan)->estimated_rows);
  const double q_error =
      std::max(estimated / actual, actual / estimated);
  EXPECT_LE(q_error, test_case.max_q_error)
      << test_case.sql << "\n  estimated=" << estimated
      << " actual=" << actual;
}

INSTANTIATE_TEST_SUITE_P(
    TpchPredicates, CardinalityTest,
    ::testing::Values(
        // Date range on orders: histogram range estimation.
        Case{"orders_date_quarter",
             "select o_orderkey from orders where o_orderdate >= date "
             "'1993-07-01' and o_orderdate < date '1993-10-01'",
             1.6},
        // Narrower range.
        Case{"orders_date_month",
             "select o_orderkey from orders where o_orderdate >= date "
             "'1995-01-01' and o_orderdate < date '1995-02-01'",
             2.0},
        // Equality on a low-NDV string column: 1/ndv.
        Case{"orderpriority_eq",
             "select o_orderkey from orders where o_orderpriority = "
             "'1-URGENT'",
             1.6},
        // Numeric comparison through the histogram.
        Case{"quantity_lt",
             "select l_orderkey from lineitem where l_quantity < 24",
             1.4},
        // Conjunction of a range and a one-sided bound.
        Case{"discount_between_and_quantity_lt",
             "select l_orderkey from lineitem where l_discount between "
             "0.05 and 0.07 and l_quantity < 24",
             2.5},
        // Point lookup on a unique key.
        Case{"orderkey_point",
             "select o_custkey from orders where o_orderkey = 50", 2.0},
        // Foreign-key equi-join: |lineitem| expected.
        Case{"fk_join",
             "select l_orderkey from orders, lineitem where o_orderkey = "
             "l_orderkey",
             1.5},
        // Join with a selective side.
        Case{"fk_join_selective",
             "select l_orderkey from orders, lineitem where o_orderkey = "
             "l_orderkey and o_orderdate < date '1993-01-01'",
             2.5},
        // Group count: distinct-value product estimate.
        Case{"group_count",
             "select l_returnflag, l_linestatus, count(*) from lineitem "
             "group by l_returnflag, l_linestatus",
             3.0},
        // IN list.
        Case{"orderpriority_in",
             "select o_orderkey from orders where o_orderpriority in "
             "('1-URGENT', '2-HIGH')",
             1.8}));

}  // namespace
}  // namespace vdb
