#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/stats.h"
#include "catalog/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/random.h"

namespace vdb::catalog {
namespace {

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int64(5).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Null(TypeId::kInt64).is_null());
  EXPECT_FALSE(Value::Int64(0).is_null());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
  EXPECT_EQ(Value::Double(4.9).AsInt64(), 4);
  EXPECT_EQ(Value::Bool(true).AsInt64(), 1);
}

TEST(ValueTest, CompareNumericAcrossTypes) {
  EXPECT_LT(Value::Compare(Value::Int64(1), Value::Double(1.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(2.5), Value::Int64(2)), 0);
  EXPECT_EQ(Value::Compare(Value::Int64(3), Value::Double(3.0)), 0);
  EXPECT_EQ(Value::Compare(Value::Date(100), Value::Int64(100)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::Compare(Value::String("abc"), Value::String("abd")), 0);
  EXPECT_EQ(Value::Compare(Value::String("x"), Value::String("x")), 0);
}

TEST(ValueTest, EqualityNullSemantics) {
  EXPECT_FALSE(Value::Null(TypeId::kInt64) == Value::Null(TypeId::kInt64));
  EXPECT_FALSE(Value::Null(TypeId::kInt64) == Value::Int64(0));
  EXPECT_TRUE(Value::Int64(7) == Value::Int64(7));
}

TEST(ValueTest, NumericKeyPreservesStringOrder) {
  const Value a = Value::String("apple");
  const Value b = Value::String("banana");
  EXPECT_LT(a.NumericKey(), b.NumericKey());
  EXPECT_LT(Value::String("a").NumericKey(),
            Value::String("aa").NumericKey());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Null(TypeId::kString).ToString(), "NULL");
  EXPECT_EQ(Value::Date(DateFromYmd(1995, 6, 17)).ToString(), "1995-06-17");
}

TEST(DateTest, RoundTrips) {
  for (const auto& [y, m, d] : {std::tuple{1970, 1, 1}, {1992, 1, 1},
                                {1998, 8, 2}, {2000, 2, 29}, {1969, 12, 31}}) {
    const int64_t days = DateFromYmd(y, m, d);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
    EXPECT_EQ(DateToString(days), buf);
  }
  EXPECT_EQ(DateFromYmd(1970, 1, 1), 0);
  EXPECT_EQ(DateFromYmd(1970, 1, 2), 1);
}

TEST(DateTest, ParseValidAndInvalid) {
  auto d = ParseDate("1994-01-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, DateFromYmd(1994, 1, 1));
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1994-13-01").ok());
  EXPECT_FALSE(ParseDate("1994-01-40").ok());
}

TEST(SchemaTest, ColumnLookupCaseInsensitive) {
  Schema schema({Column("A", TypeId::kInt64), Column("b", TypeId::kString)});
  auto idx = schema.ColumnIndex("a");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  idx = schema.ColumnIndex("B");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(schema.ColumnIndex("c").status().IsNotFound());
}

TEST(SchemaTest, Concat) {
  Schema a({Column("x", TypeId::kInt64)});
  Schema b({Column("y", TypeId::kDouble), Column("z", TypeId::kString)});
  Schema c = a.Concat(b);
  EXPECT_EQ(c.NumColumns(), 3u);
  EXPECT_EQ(c.column(2).name, "z");
}

TEST(TupleSerializationTest, RoundTripAllTypes) {
  Schema schema({Column("i", TypeId::kInt64), Column("d", TypeId::kDouble),
                 Column("s", TypeId::kString), Column("b", TypeId::kBool),
                 Column("t", TypeId::kDate)});
  Tuple tuple{Value::Int64(-77), Value::Double(3.25),
              Value::String("hello \0world"), Value::Bool(true),
              Value::Date(9000)};
  const std::string data = SerializeTuple(tuple, schema);
  auto back = DeserializeTuple(data, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 5u);
  EXPECT_EQ((*back)[0].AsInt64(), -77);
  EXPECT_DOUBLE_EQ((*back)[1].AsDouble(), 3.25);
  EXPECT_EQ((*back)[2].AsString(), tuple[2].AsString());
  EXPECT_TRUE((*back)[3].AsBool());
  EXPECT_EQ((*back)[4].type(), TypeId::kDate);
  EXPECT_EQ((*back)[4].AsInt64(), 9000);
}

TEST(TupleSerializationTest, RoundTripNulls) {
  Schema schema({Column("i", TypeId::kInt64), Column("s", TypeId::kString)});
  Tuple tuple{Value::Null(TypeId::kInt64), Value::Null(TypeId::kString)};
  auto back = DeserializeTuple(SerializeTuple(tuple, schema), schema);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)[0].is_null());
  EXPECT_TRUE((*back)[1].is_null());
  EXPECT_EQ((*back)[0].type(), TypeId::kInt64);
}

TEST(TupleSerializationTest, TruncatedInputFails) {
  Schema schema({Column("i", TypeId::kInt64)});
  Tuple tuple{Value::Int64(5)};
  std::string data = SerializeTuple(tuple, schema);
  data.resize(data.size() - 1);
  EXPECT_FALSE(DeserializeTuple(data, schema).ok());
}

TEST(HistogramTest, UniformFractions) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  Histogram hist = Histogram::Build(std::move(values), 32);
  EXPECT_FALSE(hist.empty());
  EXPECT_NEAR(hist.FractionBelow(5000), 0.5, 0.05);
  EXPECT_NEAR(hist.FractionBetween(2500, 7500), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(-1), 0.0);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(10001), 1.0);
}

TEST(HistogramTest, SkewedData) {
  // 90% of values are < 10; the histogram should capture that.
  std::vector<double> values;
  for (int i = 0; i < 9000; ++i) values.push_back(i % 10);
  for (int i = 0; i < 1000; ++i) values.push_back(100 + i);
  Histogram hist = Histogram::Build(std::move(values), 32);
  EXPECT_NEAR(hist.FractionBelow(50), 0.9, 0.05);
}

TEST(HistogramTest, DegenerateSingleValue) {
  Histogram hist = Histogram::Build(std::vector<double>(100, 5.0), 32);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(4.9), 0.0);
  EXPECT_DOUBLE_EQ(hist.FractionBelow(5.0), 1.0);
  EXPECT_NEAR(hist.FractionBetween(4.0, 6.0), 1.0, 1e-9);
}

TEST(HistogramTest, EmptyInput) {
  Histogram hist = Histogram::Build({}, 32);
  EXPECT_TRUE(hist.empty());
}

// Histogram bounds as a full sort picks them: the evenly spaced sample
// positions of the sorted values. Histogram::Build selects the same order
// statistics without sorting everything.
std::vector<double> SortedSampleBounds(std::vector<double> values,
                                       int num_buckets) {
  std::vector<double> bounds;
  if (values.empty() || num_buckets < 1) return bounds;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t samples =
      std::min<size_t>(static_cast<size_t>(num_buckets) + 1, n);
  for (size_t s = 0; s < samples; ++s) {
    bounds.push_back(values[s * (n - 1) / (samples > 1 ? samples - 1 : 1)]);
  }
  if (bounds.size() < 2) bounds.push_back(bounds.back());
  return bounds;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
              std::bit_cast<uint64_t>(want[i]))
        << "bound " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(HistogramTest, BuildMatchesFullSort) {
  Random rng(11);
  for (size_t n : {1, 2, 32, 33, 34, 1000}) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      // Every third value repeats a small set so ties straddle samples.
      values.push_back(i % 3 == 0 ? static_cast<double>(rng.UniformInt(0, 4))
                                  : rng.UniformDouble(-50.0, 50.0));
    }
    for (int buckets : {1, 4, 32, 33}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " buckets=" + std::to_string(buckets));
      ExpectSameBits(Histogram::Build(values, buckets).bounds(),
                     SortedSampleBounds(values, buckets));
    }
  }
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : pool_(&disk_, 256), catalog_(&disk_, &pool_) {}

  TableInfo* MakePeople() {
    auto table = catalog_.CreateTable(
        "people", Schema({Column("id", TypeId::kInt64),
                          Column("age", TypeId::kInt64),
                          Column("name", TypeId::kString)}));
    VDB_CHECK(table.ok());
    return *table;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  TableInfo* table = MakePeople();
  EXPECT_EQ(table->name, "people");
  auto found = catalog_.GetTable("PEOPLE");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, table);
  EXPECT_TRUE(catalog_.GetTable("nope").status().IsNotFound());
  EXPECT_TRUE(catalog_.CreateTable("people", table->schema)
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(
      catalog_.CreateTable("empty", Schema()).status().IsInvalidArgument());
}

TEST_F(CatalogTest, InsertAndScan) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(20 + i % 60),
                                         Value::String("p" +
                                                       std::to_string(i))})
                    .ok());
  }
  int count = 0;
  for (auto it = table->heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), table->schema);
    ASSERT_TRUE(tuple.ok());
    EXPECT_EQ((*tuple)[0].AsInt64(), count);
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST_F(CatalogTest, InsertArityMismatch) {
  TableInfo* table = MakePeople();
  EXPECT_TRUE(catalog_.Insert(table, Tuple{Value::Int64(1)})
                  .IsInvalidArgument());
}

TEST_F(CatalogTest, IndexBackfillAndMaintenance) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(i % 5),
                                         Value::String("x")})
                    .ok());
  }
  // Index created after load is back-filled.
  auto index = catalog_.CreateIndex("people_age", "people", "age");
  ASSERT_TRUE(index.ok());
  auto rids = (*index)->tree->Lookup(3);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 6u);
  // New inserts maintain the index.
  ASSERT_TRUE(catalog_
                  .Insert(table, Tuple{Value::Int64(100), Value::Int64(3),
                                       Value::String("y")})
                  .ok());
  rids = (*index)->tree->Lookup(3);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 7u);
}

TEST_F(CatalogTest, IndexedLookupFetchesCorrectTuples) {
  TableInfo* table = MakePeople();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert(table, Tuple{Value::Int64(i),
                                         Value::Int64(1000 + i),
                                         Value::String("n" +
                                                       std::to_string(i))})
                    .ok());
  }
  auto index = catalog_.CreateIndex("people_id", "people", "id");
  ASSERT_TRUE(index.ok());
  auto rids = (*index)->tree->Lookup(17);
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  auto record =
      table->heap->Get(storage::RecordId::Unpack((*rids)[0]));
  ASSERT_TRUE(record.ok());
  auto tuple = DeserializeTuple(*record, table->schema);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ((*tuple)[1].AsInt64(), 1017);
  EXPECT_EQ((*tuple)[2].AsString(), "n17");
}

TEST_F(CatalogTest, IndexErrors) {
  MakePeople();
  EXPECT_TRUE(catalog_.CreateIndex("i1", "nope", "id").status().IsNotFound());
  EXPECT_TRUE(
      catalog_.CreateIndex("i1", "people", "nope").status().IsNotFound());
  EXPECT_TRUE(catalog_.CreateIndex("i1", "people", "name")
                  .status()
                  .IsNotSupported());
  ASSERT_TRUE(catalog_.CreateIndex("i1", "people", "id").ok());
  EXPECT_TRUE(catalog_.CreateIndex("i1", "people", "age")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(catalog_.GetIndex("i1").ok());
  EXPECT_TRUE(catalog_.GetIndex("i2").status().IsNotFound());
}

TEST_F(CatalogTest, NullsSkippedByIndex) {
  TableInfo* table = MakePeople();
  ASSERT_TRUE(catalog_
                  .Insert(table, Tuple{Value::Int64(1),
                                       Value::Null(TypeId::kInt64),
                                       Value::String("a")})
                  .ok());
  auto index = catalog_.CreateIndex("people_age", "people", "age");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->tree->NumEntries(), 0u);
}

TEST_F(CatalogTest, AnalyzeComputesStats) {
  TableInfo* table = MakePeople();
  Random rng(3);
  const int rows = 500;
  for (int i = 0; i < rows; ++i) {
    const bool null_age = i % 10 == 0;
    ASSERT_TRUE(
        catalog_
            .Insert(table,
                    Tuple{Value::Int64(i),
                          null_age ? Value::Null(TypeId::kInt64)
                                   : Value::Int64(rng.UniformInt(0, 49)),
                          Value::String("name-" + std::to_string(i % 7))})
            .ok());
  }
  ASSERT_TRUE(catalog_.Analyze(table).ok());
  const TableStats& stats = table->stats;
  EXPECT_EQ(stats.row_count, static_cast<uint64_t>(rows));
  EXPECT_GT(stats.page_count, 0u);
  ASSERT_EQ(stats.columns.size(), 3u);
  // id: unique, no nulls.
  EXPECT_EQ(stats.columns[0].ndv, static_cast<uint64_t>(rows));
  EXPECT_EQ(stats.columns[0].null_count, 0u);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, rows - 1.0);
  // age: 50 distinct, 10% null.
  EXPECT_NEAR(static_cast<double>(stats.columns[1].ndv), 50.0, 3.0);
  EXPECT_NEAR(stats.columns[1].NullFraction(), 0.1, 0.01);
  // name: 7 distinct strings.
  EXPECT_EQ(stats.columns[2].ndv, 7u);
  EXPECT_GT(stats.columns[2].avg_width, 4.0);
}

// ANALYZE as it was written before the batch page walk: boxed tuples from
// the copying heap iterator, an unordered_set of Value::Hash for NDV, and
// a full sort for the histogram. Catalog::Analyze must match it bit for
// bit on every ColumnStats field.
struct ReferenceColumn {
  ColumnStats stats;
  std::vector<double> bounds;
};

std::vector<ReferenceColumn> ReferenceAnalyze(const TableInfo& table,
                                              int buckets,
                                              uint64_t* row_count) {
  const size_t num_columns = table.schema.NumColumns();
  std::vector<ReferenceColumn> out(num_columns);
  std::vector<std::vector<double>> keys(num_columns);
  std::vector<std::unordered_set<size_t>> distinct(num_columns);
  std::vector<double> width_sums(num_columns, 0.0);
  *row_count = 0;
  for (auto it = table.heap->Begin(); it.Valid(); it.Next()) {
    auto tuple = DeserializeTuple(it.record(), table.schema);
    VDB_CHECK(tuple.ok());
    ++*row_count;
    for (size_t c = 0; c < num_columns; ++c) {
      const Value& value = (*tuple)[c];
      ColumnStats& cs = out[c].stats;
      if (value.is_null()) {
        cs.null_count++;
        continue;
      }
      cs.non_null_count++;
      keys[c].push_back(value.NumericKey());
      distinct[c].insert(value.Hash());
      width_sums[c] += value.type() == TypeId::kString
                           ? static_cast<double>(value.AsString().size())
                           : 8.0;
    }
  }
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStats& cs = out[c].stats;
    cs.ndv = distinct[c].size();
    if (keys[c].empty()) continue;
    const auto [mn, mx] = std::minmax_element(keys[c].begin(), keys[c].end());
    cs.min = *mn;
    cs.max = *mx;
    cs.avg_width = width_sums[c] / static_cast<double>(cs.non_null_count);
    out[c].bounds = SortedSampleBounds(std::move(keys[c]), buckets);
  }
  return out;
}

void ExpectAnalyzeMatchesReference(Catalog* catalog, TableInfo* table,
                                   int buckets) {
  SCOPED_TRACE(table->name + " buckets=" + std::to_string(buckets));
  ASSERT_TRUE(catalog->Analyze(table, buckets).ok());
  uint64_t rows = 0;
  const std::vector<ReferenceColumn> want =
      ReferenceAnalyze(*table, buckets, &rows);
  const TableStats& got = table->stats;
  EXPECT_EQ(got.row_count, rows);
  EXPECT_EQ(got.page_count, table->heap->NumPages());
  ASSERT_EQ(got.columns.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    SCOPED_TRACE("column " + table->schema.column(c).name);
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want[c].stats;
    EXPECT_EQ(g.non_null_count, w.non_null_count);
    EXPECT_EQ(g.null_count, w.null_count);
    EXPECT_EQ(g.ndv, w.ndv);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.min), std::bit_cast<uint64_t>(w.min));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.max), std::bit_cast<uint64_t>(w.max));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.avg_width),
              std::bit_cast<uint64_t>(w.avg_width));
    ExpectSameBits(g.histogram.bounds(), want[c].bounds);
  }
}

// Strings around the 8-byte NumericKey prefix: shorter, exact, longer
// (sharing a prefix, so keys tie while hashes differ), and empty.
const std::vector<std::string>& EdgeStrings() {
  static const std::vector<std::string> strings = {
      "", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghij-long-tail",
      "abcdefgh-other", "zz", "\xff\x01", "ABCDEFGH"};
  return strings;
}

TEST_F(CatalogTest, AnalyzeMatchesBoxedReference) {
  Random rng(23);
  auto maybe_null = [&](TypeId type, Value value) {
    return rng.Bernoulli(0.15) ? Value::Null(type) : std::move(value);
  };

  // NULLs in every column type, across several pages, with some records
  // deleted (one page entirely) so the walk skips dead slots and pages.
  auto mixed = catalog_.CreateTable(
      "mixed", Schema({Column("b", TypeId::kBool), Column("i", TypeId::kInt64),
                       Column("d", TypeId::kDouble),
                       Column("t", TypeId::kDate),
                       Column("s", TypeId::kString)}));
  ASSERT_TRUE(mixed.ok());
  for (int r = 0; r < 1500; ++r) {
    const std::string& s = EdgeStrings()[rng.Uniform(EdgeStrings().size())];
    Tuple tuple{
        maybe_null(TypeId::kBool, Value::Bool(rng.Bernoulli(0.3))),
        maybe_null(TypeId::kInt64, Value::Int64(rng.UniformInt(-1000, 1000))),
        maybe_null(TypeId::kDouble, Value::Double(rng.UniformDouble(-5, 5))),
        maybe_null(TypeId::kDate, Value::Date(rng.UniformInt(8000, 8100))),
        maybe_null(TypeId::kString, Value::String(s + std::to_string(r % 40)))};
    ASSERT_TRUE(catalog_.Insert(*mixed, tuple).ok());
  }
  const storage::PageId first_page = (*mixed)->heap->pages().front();
  for (uint16_t slot = 0;; ++slot) {
    if (!catalog_.Delete(*mixed, storage::RecordId{first_page, slot}).ok()) {
      break;
    }
  }
  const storage::PageId second_page = (*mixed)->heap->pages()[1];
  for (uint16_t slot = 0; slot < 40; slot += 3) {
    ASSERT_TRUE(
        catalog_.Delete(*mixed, storage::RecordId{second_page, slot}).ok());
  }

  // An all-NULL column (two, of different types) beside a live one.
  auto all_null = catalog_.CreateTable(
      "all_null", Schema({Column("x", TypeId::kInt64),
                          Column("y", TypeId::kString),
                          Column("z", TypeId::kDouble)}));
  ASSERT_TRUE(all_null.ok());
  for (int r = 0; r < 50; ++r) {
    ASSERT_TRUE(catalog_
                    .Insert(*all_null, Tuple{Value::Null(TypeId::kInt64),
                                             Value::Null(TypeId::kString),
                                             Value::Double(r * 0.5)})
                    .ok());
  }

  auto empty = catalog_.CreateTable(
      "empty", Schema({Column("x", TypeId::kInt64),
                       Column("s", TypeId::kString)}));
  ASSERT_TRUE(empty.ok());

  // Edge strings alone, each heavily duplicated.
  auto strings = catalog_.CreateTable(
      "strings", Schema({Column("s", TypeId::kString)}));
  ASSERT_TRUE(strings.ok());
  for (int r = 0; r < 800; ++r) {
    ASSERT_TRUE(catalog_
                    .Insert(*strings, Tuple{Value::String(EdgeStrings()[
                                          rng.Uniform(EdgeStrings().size())])})
                    .ok());
  }

  // Heavy duplicates: three ints and two doubles over many rows.
  auto dups = catalog_.CreateTable(
      "dups", Schema({Column("k", TypeId::kInt64),
                      Column("v", TypeId::kDouble)}));
  ASSERT_TRUE(dups.ok());
  for (int r = 0; r < 3000; ++r) {
    ASSERT_TRUE(catalog_
                    .Insert(*dups, Tuple{Value::Int64(r % 3 == 0 ? 7 : r % 2),
                                         Value::Double(r % 5 == 0 ? 0.25
                                                                  : -1.5)})
                    .ok());
  }

  for (TableInfo* table : {*mixed, *all_null, *empty, *strings, *dups}) {
    for (int buckets : {32, 4, 1}) {
      ExpectAnalyzeMatchesReference(&catalog_, table, buckets);
    }
  }
}

TEST_F(CatalogTest, AnalyzeMatchesBoxedReferenceAroundBucketCount) {
  // Row counts below, at and above buckets + 1 = 33.
  Random rng(29);
  for (int rows : {1, 2, 5, 32, 33, 34, 1000}) {
    auto table = catalog_.CreateTable(
        "n" + std::to_string(rows),
        Schema({Column("i", TypeId::kInt64), Column("s", TypeId::kString)}));
    ASSERT_TRUE(table.ok());
    for (int r = 0; r < rows; ++r) {
      ASSERT_TRUE(catalog_
                      .Insert(*table, Tuple{Value::Int64(rng.UniformInt(0, 20)),
                                            Value::String(EdgeStrings()[r %
                                                EdgeStrings().size()])})
                      .ok());
    }
    ExpectAnalyzeMatchesReference(&catalog_, *table, 32);
  }
}

TEST_F(CatalogTest, AnalyzeAllAndTablesList) {
  MakePeople();
  ASSERT_TRUE(
      catalog_.CreateTable("t2", Schema({Column("x", TypeId::kInt64)})).ok());
  EXPECT_EQ(catalog_.Tables().size(), 2u);
  ASSERT_TRUE(catalog_.AnalyzeAll().ok());
  for (TableInfo* table : catalog_.Tables()) {
    EXPECT_TRUE(table->stats.Analyzed());
  }
}

}  // namespace
}  // namespace vdb::catalog
