// End-to-end integration tests: the supported TPC-H queries run
// through the full stack (parser -> planner -> optimizer -> executor) and
// their results are checked against reference answers computed by direct
// heap scans in this file (no SQL machinery), plus invariants that must
// hold regardless of data.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/tpch.h"
#include "datagen/tpch_queries.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "util/string_util.h"

namespace vdb {
namespace {

using catalog::DeserializeTuple;
using catalog::TableInfo;
using catalog::Tuple;
using catalog::Value;

class TpchIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new exec::Database();
    vm_ = new sim::VirtualMachine(
        "vm", sim::MachineSpec::PaperTestbed(),
        sim::HypervisorModel::XenLike(), sim::ResourceShare(0.5, 0.5, 0.5));
    datagen::TpchConfig config;
    config.scale_factor = 0.01;
    config.seed = 17;
    VDB_CHECK_OK(datagen::GenerateTpch(db_->catalog(), config));
    VDB_CHECK_OK(db_->ApplyVmConfig(*vm_));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete vm_;
    db_ = nullptr;
    vm_ = nullptr;
  }

  static std::vector<Tuple> Run(const std::string& sql) {
    auto result = db_->Execute(sql, *vm_);
    VDB_CHECK(result.ok()) << result.status() << "\n" << sql;
    return std::move(result->rows);
  }

  static std::vector<Tuple> RunQ(int number) {
    auto sql = datagen::TpchQuery(number);
    VDB_CHECK(sql.ok());
    return Run(*sql);
  }

  // Materializes a base table for reference computations.
  static std::vector<Tuple> Scan(const std::string& table_name) {
    auto table = db_->catalog()->GetTable(table_name);
    VDB_CHECK(table.ok());
    std::vector<Tuple> rows;
    for (auto it = (*table)->heap->Begin(); it.Valid(); it.Next()) {
      auto tuple = DeserializeTuple(it.record(), (*table)->schema);
      VDB_CHECK(tuple.ok());
      rows.push_back(std::move(*tuple));
    }
    return rows;
  }

  static size_t Col(const std::string& table_name,
                    const std::string& column) {
    auto table = db_->catalog()->GetTable(table_name);
    VDB_CHECK(table.ok());
    auto index = (*table)->schema.ColumnIndex(column);
    VDB_CHECK(index.ok());
    return *index;
  }

  static exec::Database* db_;
  static sim::VirtualMachine* vm_;
};

exec::Database* TpchIntegrationTest::db_ = nullptr;
sim::VirtualMachine* TpchIntegrationTest::vm_ = nullptr;

TEST_F(TpchIntegrationTest, AllSupportedQueriesExecute) {
  for (const datagen::TpchQueryDef& query : datagen::TpchQueries()) {
    auto result = db_->Execute(query.sql, *vm_);
    ASSERT_TRUE(result.ok())
        << "Q" << query.number << ": " << result.status();
    if (query.number != 18) {  // Q18's >300 filter can be empty at SF 0.01
      EXPECT_FALSE(result->rows.empty()) << "Q" << query.number;
    }
    EXPECT_GT(result->elapsed_seconds, 0.0);
  }
}

TEST_F(TpchIntegrationTest, Q1MatchesReference) {
  // Reference: group lineitem by (returnflag, linestatus) by hand.
  const auto lineitem = Scan("lineitem");
  const size_t flag = Col("lineitem", "l_returnflag");
  const size_t status = Col("lineitem", "l_linestatus");
  const size_t qty = Col("lineitem", "l_quantity");
  const size_t price = Col("lineitem", "l_extendedprice");
  const size_t disc = Col("lineitem", "l_discount");
  const size_t ship = Col("lineitem", "l_shipdate");
  const int64_t cutoff = catalog::DateFromYmd(1998, 9, 2);

  struct Group {
    double sum_qty = 0;
    double sum_price = 0;
    double sum_disc_price = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Group> reference;
  for (const Tuple& row : lineitem) {
    if (row[ship].AsInt64() > cutoff) continue;
    Group& group = reference[{row[flag].AsString(),
                              row[status].AsString()}];
    group.sum_qty += row[qty].AsDouble();
    group.sum_price += row[price].AsDouble();
    group.sum_disc_price +=
        row[price].AsDouble() * (1.0 - row[disc].AsDouble());
    group.count += 1;
  }

  const auto rows = RunQ(1);
  ASSERT_EQ(rows.size(), reference.size());
  for (const Tuple& row : rows) {
    const auto key =
        std::make_pair(row[0].AsString(), row[1].AsString());
    ASSERT_TRUE(reference.count(key)) << key.first << key.second;
    const Group& group = reference[key];
    EXPECT_NEAR(row[2].AsDouble(), group.sum_qty, 1e-6);
    EXPECT_NEAR(row[3].AsDouble(), group.sum_price,
                1e-9 * std::fabs(group.sum_price) + 1e-6);
    EXPECT_NEAR(row[4].AsDouble(), group.sum_disc_price,
                1e-9 * std::fabs(group.sum_disc_price) + 1e-6);
    EXPECT_EQ(row[9].AsInt64(), group.count);
    // avg = sum / count
    EXPECT_NEAR(row[6].AsDouble(), group.sum_qty / group.count, 1e-9);
  }
  // Output must be ordered by (returnflag, linestatus).
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto prev =
        std::make_pair(rows[i - 1][0].AsString(), rows[i - 1][1].AsString());
    const auto curr =
        std::make_pair(rows[i][0].AsString(), rows[i][1].AsString());
    EXPECT_LT(prev, curr);
  }
}

TEST_F(TpchIntegrationTest, Q4MatchesReference) {
  // Reference: orders in the date window with >= 1 late lineitem.
  const auto orders = Scan("orders");
  const auto lineitem = Scan("lineitem");
  const size_t okey = Col("orders", "o_orderkey");
  const size_t odate = Col("orders", "o_orderdate");
  const size_t oprio = Col("orders", "o_orderpriority");
  const size_t lkey = Col("lineitem", "l_orderkey");
  const size_t commit = Col("lineitem", "l_commitdate");
  const size_t receipt = Col("lineitem", "l_receiptdate");
  const int64_t lo = catalog::DateFromYmd(1993, 7, 1);
  const int64_t hi = catalog::DateFromYmd(1993, 10, 1);

  std::set<int64_t> late_orders;
  for (const Tuple& row : lineitem) {
    if (row[commit].AsInt64() < row[receipt].AsInt64()) {
      late_orders.insert(row[lkey].AsInt64());
    }
  }
  std::map<std::string, int64_t> reference;
  for (const Tuple& row : orders) {
    const int64_t date = row[odate].AsInt64();
    if (date < lo || date >= hi) continue;
    if (late_orders.count(row[okey].AsInt64())) {
      reference[row[oprio].AsString()] += 1;
    }
  }

  const auto rows = RunQ(4);
  ASSERT_EQ(rows.size(), reference.size());
  std::string previous;
  for (const Tuple& row : rows) {
    const std::string priority = row[0].AsString();
    ASSERT_TRUE(reference.count(priority)) << priority;
    EXPECT_EQ(row[1].AsInt64(), reference[priority]) << priority;
    EXPECT_LT(previous, priority);  // ordered by priority
    previous = priority;
  }
}

TEST_F(TpchIntegrationTest, Q6MatchesReference) {
  const auto lineitem = Scan("lineitem");
  const size_t ship = Col("lineitem", "l_shipdate");
  const size_t disc = Col("lineitem", "l_discount");
  const size_t qty = Col("lineitem", "l_quantity");
  const size_t price = Col("lineitem", "l_extendedprice");
  const int64_t lo = catalog::DateFromYmd(1994, 1, 1);
  const int64_t hi = catalog::DateFromYmd(1995, 1, 1);
  double revenue = 0.0;
  for (const Tuple& row : lineitem) {
    const int64_t date = row[ship].AsInt64();
    const double discount = row[disc].AsDouble();
    if (date >= lo && date < hi && discount >= 0.05 &&
        discount <= 0.07 && row[qty].AsDouble() < 24) {
      revenue += row[price].AsDouble() * discount;
    }
  }
  const auto rows = RunQ(6);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0][0].AsDouble(), revenue,
              1e-9 * std::fabs(revenue) + 1e-9);
}

TEST_F(TpchIntegrationTest, Q13MatchesReference) {
  // Reference: per customer, count orders whose comment does NOT match
  // '%special%requests%'; then histogram customers by that count.
  const auto customers = Scan("customer");
  const auto orders = Scan("orders");
  const size_t ckey = Col("customer", "c_custkey");
  const size_t ocust = Col("orders", "o_custkey");
  const size_t comment = Col("orders", "o_comment");

  std::map<int64_t, int64_t> per_customer;
  for (const Tuple& row : customers) {
    per_customer[row[ckey].AsInt64()] = 0;
  }
  for (const Tuple& row : orders) {
    if (LikeMatch(row[comment].AsString(), "%special%requests%")) continue;
    per_customer[row[ocust].AsInt64()] += 1;
  }
  std::map<int64_t, int64_t> reference;  // c_count -> custdist
  for (const auto& [customer, count] : per_customer) {
    reference[count] += 1;
  }

  const auto rows = RunQ(13);
  ASSERT_EQ(rows.size(), reference.size());
  int64_t total_customers = 0;
  for (const Tuple& row : rows) {
    const int64_t c_count = row[0].AsInt64();
    ASSERT_TRUE(reference.count(c_count)) << c_count;
    EXPECT_EQ(row[1].AsInt64(), reference[c_count]) << c_count;
    total_customers += row[1].AsInt64();
  }
  EXPECT_EQ(total_customers, static_cast<int64_t>(customers.size()));
  // Ordered by custdist desc, c_count desc.
  for (size_t i = 1; i < rows.size(); ++i) {
    const bool ordered =
        rows[i - 1][1].AsInt64() > rows[i][1].AsInt64() ||
        (rows[i - 1][1].AsInt64() == rows[i][1].AsInt64() &&
         rows[i - 1][0].AsInt64() > rows[i][0].AsInt64());
    EXPECT_TRUE(ordered) << "row " << i;
  }
}

TEST_F(TpchIntegrationTest, Q3TopTenOrderedByRevenue) {
  const auto rows = RunQ(3);
  ASSERT_LE(rows.size(), 10u);
  ASSERT_GE(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].AsDouble(), rows[i][1].AsDouble());
  }
  // Every revenue positive; orderdate before the cutoff.
  const int64_t cutoff = catalog::DateFromYmd(1995, 3, 15);
  for (const Tuple& row : rows) {
    EXPECT_GT(row[1].AsDouble(), 0.0);
    EXPECT_LT(row[2].AsInt64(), cutoff);
  }
}

TEST_F(TpchIntegrationTest, Q5RevenuePositiveAndSortedDesc) {
  const auto rows = RunQ(5);
  // Asian nations with revenue in 1994; results sorted descending.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][1].AsDouble(), rows[i][1].AsDouble());
  }
  const std::set<std::string> asia = {"INDIA", "INDONESIA", "JAPAN",
                                      "CHINA", "VIETNAM"};
  for (const Tuple& row : rows) {
    EXPECT_TRUE(asia.count(row[0].AsString())) << row[0].AsString();
    EXPECT_GT(row[1].AsDouble(), 0.0);
  }
}

TEST_F(TpchIntegrationTest, Q12CountsConsistent) {
  const auto rows = RunQ(12);
  ASSERT_LE(rows.size(), 2u);  // MAIL, SHIP
  for (const Tuple& row : rows) {
    const std::string mode = row[0].AsString();
    EXPECT_TRUE(mode == "MAIL" || mode == "SHIP");
    EXPECT_GE(row[1].AsInt64(), 0);
    EXPECT_GE(row[2].AsInt64(), 0);
    EXPECT_GT(row[1].AsInt64() + row[2].AsInt64(), 0);
  }
}

TEST_F(TpchIntegrationTest, Q18LargeVolumeCustomers) {
  // Reference: orders whose total lineitem quantity exceeds 300.
  const auto lineitem = Scan("lineitem");
  const size_t lkey = Col("lineitem", "l_orderkey");
  const size_t qty = Col("lineitem", "l_quantity");
  std::map<int64_t, double> per_order;
  for (const Tuple& row : lineitem) {
    per_order[row[lkey].AsInt64()] += row[qty].AsDouble();
  }
  std::set<int64_t> expected_orders;
  for (const auto& [order, total] : per_order) {
    if (total > 300.0) expected_orders.insert(order);
  }

  const auto rows = RunQ(18);
  EXPECT_EQ(rows.size(), std::min<size_t>(expected_orders.size(), 100));
  double previous_price = 1e18;
  for (const Tuple& row : rows) {
    const int64_t order = row[2].AsInt64();
    EXPECT_TRUE(expected_orders.count(order)) << order;
    EXPECT_NEAR(row[5].AsDouble(), per_order[order], 1e-9);
    EXPECT_GT(row[5].AsDouble(), 300.0);
    EXPECT_LE(row[4].AsDouble(), previous_price);  // o_totalprice desc
    previous_price = row[4].AsDouble();
  }
}

TEST_F(TpchIntegrationTest, Q14PromoShareIsAPercentage) {
  const auto rows = RunQ(14);
  ASSERT_EQ(rows.size(), 1u);
  const double promo = rows[0][0].AsDouble();
  EXPECT_GE(promo, 0.0);
  EXPECT_LE(promo, 100.0);
}

TEST_F(TpchIntegrationTest, Q17LiteScalarSubquery) {
  // Uncorrelated variant of Q17's shape: lineitems cheaper than a fifth
  // of the global average quantity. Reference by direct scan.
  const auto lineitem = Scan("lineitem");
  const size_t qty = Col("lineitem", "l_quantity");
  const size_t price = Col("lineitem", "l_extendedprice");
  double sum_qty = 0.0;
  for (const Tuple& row : lineitem) sum_qty += row[qty].AsDouble();
  const double threshold =
      0.2 * sum_qty / static_cast<double>(lineitem.size());
  double expected = 0.0;
  for (const Tuple& row : lineitem) {
    if (row[qty].AsDouble() < threshold) expected += row[price].AsDouble();
  }
  const auto rows = Run(
      "select sum(l_extendedprice) from lineitem where l_quantity < 0.2 * "
      "(select avg(l_quantity) from lineitem)");
  ASSERT_EQ(rows.size(), 1u);
  if (expected == 0.0) {
    EXPECT_TRUE(rows[0][0].is_null());
  } else {
    EXPECT_NEAR(rows[0][0].AsDouble(), expected,
                1e-9 * expected + 1e-6);
  }
}

TEST_F(TpchIntegrationTest, ResultsIdenticalAcrossAllocations) {
  // Changing the VM's resources (and hence plans via what-if params and
  // the instance memory config) must never change query answers.
  sim::VirtualMachine starved("s", sim::MachineSpec::PaperTestbed(),
                              sim::HypervisorModel::XenLike(),
                              sim::ResourceShare(0.1, 0.1, 0.1));
  for (const int query : {1, 4, 6, 13}) {
    auto sql = datagen::TpchQuery(query);
    ASSERT_TRUE(sql.ok());
    VDB_CHECK_OK(db_->ApplyVmConfig(*vm_));
    auto baseline = db_->Execute(*sql, *vm_);
    ASSERT_TRUE(baseline.ok());
    VDB_CHECK_OK(db_->ApplyVmConfig(starved));
    auto constrained = db_->Execute(*sql, starved);
    ASSERT_TRUE(constrained.ok());
    VDB_CHECK_OK(db_->ApplyVmConfig(*vm_));
    ASSERT_EQ(baseline->rows.size(), constrained->rows.size())
        << "Q" << query;
    for (size_t i = 0; i < baseline->rows.size(); ++i) {
      EXPECT_EQ(catalog::TupleToString(baseline->rows[i]),
                catalog::TupleToString(constrained->rows[i]))
          << "Q" << query << " row " << i;
    }
    // The starved VM must also be slower.
    EXPECT_GT(constrained->elapsed_seconds, baseline->elapsed_seconds);
  }
}

TEST_F(TpchIntegrationTest, EstimatesRankQ4VsQ13CpuPlansCorrectly) {
  // Miniature of the paper's Figure 4 logic as a regression test: with
  // default parameters scaled for CPU share, Q13's estimate must be more
  // CPU-sensitive than Q4's.
  auto q4 = datagen::TpchQuery(4);
  auto q13 = datagen::TpchQuery(13);
  optimizer::OptimizerParams fast;  // generous CPU
  fast.cpu_tuple_cost = 0.0002;
  fast.cpu_operator_cost = 0.00005;
  optimizer::OptimizerParams slow = fast;  // starved CPU: 3x per-op time
  slow.cpu_tuple_cost *= 3;
  slow.cpu_operator_cost *= 3;

  auto estimate = [&](const std::string& sql,
                      const optimizer::OptimizerParams& params) {
    db_->SetOptimizerParams(params);
    auto plan = db_->Prepare(sql);
    VDB_CHECK(plan.ok());
    return (*plan)->total_cost_ms;
  };
  const double q4_swing = estimate(*q4, slow) / estimate(*q4, fast);
  const double q13_swing = estimate(*q13, slow) / estimate(*q13, fast);
  EXPECT_GT(q13_swing, q4_swing);
}

// FNV-1a accumulator for the load fingerprints below.
struct Fnv1a {
  uint64_t hash = 0xcbf29ce484222325ULL;
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
};

// The whole SF 0.01 load — inserts, the index back-fills and ANALYZE —
// must leave the same database: the same page images, the same buffer
// pool traffic, the same statistics and the same index shapes. The
// constants pin the back-fill's page order and pin release end to end
// (the 64-page pool evicts often enough that holding a heap page pinned
// during its inserts moves the counters); tree shape (NumPages, Height)
// feeds what-if index costing. The constants were recorded from the load
// that copied and boxed every record.
TEST(TpchLoadTest, LeavesTheSameDatabase) {
  exec::Database db;
  ASSERT_TRUE(db.buffer_pool()->Resize(64).ok());
  datagen::TpchConfig config;
  config.scale_factor = 0.01;
  config.seed = 17;
  ASSERT_TRUE(datagen::GenerateTpch(db.catalog(), config).ok());

  const storage::BufferPoolStats stats = db.buffer_pool()->stats();
  EXPECT_EQ(stats.hits, 786323u);
  EXPECT_EQ(stats.sequential_misses, 6351u);
  EXPECT_EQ(stats.random_misses, 31615u);
  EXPECT_EQ(stats.page_writes, 31615u);

  Fnv1a table_stats;
  Fnv1a index_shapes;
  for (const TableInfo* table : db.catalog()->Tables()) {
    table_stats.Add(table->stats.row_count);
    table_stats.Add(table->stats.page_count);
    for (const catalog::ColumnStats& column : table->stats.columns) {
      table_stats.Add(column.non_null_count);
      table_stats.Add(column.null_count);
      table_stats.Add(column.ndv);
      table_stats.Add(column.min);
      table_stats.Add(column.max);
      table_stats.Add(column.avg_width);
      table_stats.Add(static_cast<uint64_t>(column.histogram.bounds().size()));
      for (double bound : column.histogram.bounds()) table_stats.Add(bound);
    }
    for (const catalog::IndexInfo* index : table->indexes) {
      index_shapes.Add(index->tree->NumPages());
      index_shapes.Add(static_cast<uint64_t>(index->tree->Height()));
      index_shapes.Add(index->tree->NumEntries());
    }
  }
  EXPECT_EQ(table_stats.hash, 13652573669207290714ULL);
  EXPECT_EQ(index_shapes.hash, 1514605692604317780ULL);

  db.buffer_pool()->FlushAll();
  Fnv1a pages;
  storage::Page page;
  for (storage::PageId id = 0; id < db.disk()->NumPages(); ++id) {
    db.disk()->ReadPage(id, &page);
    pages.Add(page.data(), storage::kPageSize);
  }
  EXPECT_EQ(db.disk()->NumPages(), 2413u);
  EXPECT_EQ(pages.hash, 12378964562200689570ULL);
}

}  // namespace
}  // namespace vdb
