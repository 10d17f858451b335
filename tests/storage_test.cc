#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "util/random.h"

namespace vdb::storage {
namespace {

TEST(PageTest, TypedReadWrite) {
  Page page;
  page.WriteAt<uint32_t>(100, 0xdeadbeef);
  page.WriteAt<int64_t>(200, -42);
  EXPECT_EQ(page.ReadAt<uint32_t>(100), 0xdeadbeefu);
  EXPECT_EQ(page.ReadAt<int64_t>(200), -42);
  page.Zero();
  EXPECT_EQ(page.ReadAt<uint32_t>(100), 0u);
}

TEST(RecordIdTest, PackUnpackRoundTrip) {
  const RecordId rid{123456789ULL, 4321};
  const RecordId back = RecordId::Unpack(rid.Pack());
  EXPECT_EQ(back, rid);
}

TEST(DiskManagerTest, AllocateReadWrite) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  EXPECT_NE(a, b);
  EXPECT_EQ(disk.NumPages(), 2u);
  Page page;
  page.WriteAt<uint64_t>(0, 77);
  disk.WritePage(a, page);
  Page out;
  disk.ReadPage(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 77u);
  disk.ReadPage(b, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(BufferPoolTest, HitsAndMissesCounted) {
  BufferPool pool(&disk_, 4);
  const PageId p = disk_.AllocatePage();
  auto page = pool.FetchPage(p, AccessPattern::kSequential);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(pool.stats().sequential_misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  page = pool.FetchPage(p, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().Misses(), 1u);
}

TEST_F(BufferPoolTest, EvictsUnpinnedWhenFull) {
  BufferPool pool(&disk_, 2);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(disk_.AllocatePage());
  for (const PageId p : pages) {
    auto page = pool.FetchPage(p, AccessPattern::kRandom);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  EXPECT_EQ(pool.stats().random_misses, 4u);
  EXPECT_LE(pool.NumCachedPages(), 2u);
}

TEST_F(BufferPoolTest, FailsWhenAllPinned) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  const PageId b = disk_.AllocatePage();
  const PageId c = disk_.AllocatePage();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.FetchPage(b, AccessPattern::kRandom).ok());
  auto third = pool.FetchPage(c, AccessPattern::kRandom);
  EXPECT_TRUE(third.status().IsResourceExhausted());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  third = pool.FetchPage(c, AccessPattern::kRandom);
  EXPECT_TRUE(third.ok());
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEvict) {
  BufferPool pool(&disk_, 1);
  const PageId a = disk_.AllocatePage();
  const PageId b = disk_.AllocatePage();
  {
    auto page = pool.FetchPage(a, AccessPattern::kRandom);
    ASSERT_TRUE(page.ok());
    (*page)->WriteAt<uint64_t>(0, 99);
    ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  }
  // Force eviction of `a`.
  ASSERT_TRUE(pool.FetchPage(b, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());
  Page out;
  disk_.ReadPage(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 99u);
  EXPECT_GE(pool.stats().page_writes, 1u);
}

TEST_F(BufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  auto page = pool.FetchPage(a, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  (*page)->WriteAt<uint64_t>(0, 1234);
  for (int i = 0; i < 10; ++i) {
    const PageId p = disk_.AllocatePage();
    auto other = pool.FetchPage(p, AccessPattern::kRandom);
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  // `a` is still resident and intact.
  auto again = pool.FetchPage(a, AccessPattern::kRandom);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *page);
  EXPECT_EQ((*again)->ReadAt<uint64_t>(0), 1234u);
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  EXPECT_TRUE(pool.UnpinPage(a, false).IsNotFound());
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_TRUE(pool.UnpinPage(a, false).IsInternal());
}

TEST_F(BufferPoolTest, EvictAllColdStarts) {
  BufferPool pool(&disk_, 4);
  const PageId a = disk_.AllocatePage();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.NumCachedPages(), 0u);
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_EQ(pool.stats().random_misses, 1u);
}

TEST_F(BufferPoolTest, ResizeShrinkKeepsPinned) {
  BufferPool pool(&disk_, 8);
  const PageId pinned = disk_.AllocatePage();
  auto page = pool.FetchPage(pinned, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  (*page)->WriteAt<uint64_t>(8, 555);
  for (int i = 0; i < 6; ++i) {
    const PageId p = disk_.AllocatePage();
    ASSERT_TRUE(pool.FetchPage(p, AccessPattern::kRandom).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.capacity_pages(), 2u);
  auto again = pool.FetchPage(pinned, AccessPattern::kRandom);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->ReadAt<uint64_t>(8), 555u);
  ASSERT_TRUE(pool.UnpinPage(pinned, false).ok());
  ASSERT_TRUE(pool.UnpinPage(pinned, true).ok());
  ASSERT_TRUE(pool.Resize(16).ok());
  EXPECT_EQ(pool.capacity_pages(), 16u);
}

class IoCounter : public IoListener {
 public:
  void OnPageRead(AccessPattern pattern) override {
    if (pattern == AccessPattern::kSequential) {
      ++seq;
    } else {
      ++random;
    }
  }
  void OnPageWrite() override { ++writes; }
  int seq = 0;
  int random = 0;
  int writes = 0;
};

TEST_F(BufferPoolTest, ListenerSeesPhysicalIoOnly) {
  BufferPool pool(&disk_, 4);
  IoCounter counter;
  pool.SetIoListener(&counter);
  const PageId a = disk_.AllocatePage();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kSequential).ok());
    ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  }
  EXPECT_EQ(counter.seq, 1);  // one miss, two hits
  EXPECT_EQ(counter.random, 0);
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 16), heap_(&disk_, &pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  auto rid = heap_.Insert("hello world");
  ASSERT_TRUE(rid.ok());
  auto rec = heap_.Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello world");
  EXPECT_EQ(heap_.NumRecords(), 1u);
}

TEST_F(HeapFileTest, EmptyRecordAllowed) {
  auto rid = heap_.Insert("");
  ASSERT_TRUE(rid.ok());
  auto rec = heap_.Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "");
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  const std::string huge(kPageSize, 'x');
  EXPECT_TRUE(heap_.Insert(huge).status().IsInvalidArgument());
}

TEST_F(HeapFileTest, SpillsToMultiplePages) {
  const std::string record(1000, 'r');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(heap_.Insert(record).ok());
  }
  EXPECT_GT(heap_.NumPages(), 1u);
  EXPECT_EQ(heap_.NumRecords(), 30u);
}

TEST_F(HeapFileTest, ScanSeesAllRecordsInOrder) {
  std::vector<std::string> inserted;
  for (int i = 0; i < 100; ++i) {
    inserted.push_back("record-" + std::to_string(i) +
                       std::string(i % 50, 'p'));
    ASSERT_TRUE(heap_.Insert(inserted.back()).ok());
  }
  std::vector<std::string> scanned;
  for (auto it = heap_.Begin(); it.Valid(); it.Next()) {
    scanned.push_back(it.record());
  }
  EXPECT_EQ(scanned, inserted);
}

TEST_F(HeapFileTest, DeleteHidesRecord) {
  auto a = heap_.Insert("a");
  auto b = heap_.Insert("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(heap_.Delete(*a).ok());
  EXPECT_TRUE(heap_.Get(*a).status().IsNotFound());
  EXPECT_TRUE(heap_.Get(*b).ok());
  EXPECT_EQ(heap_.NumRecords(), 1u);
  int count = 0;
  for (auto it = heap_.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 1);
  // Double delete reports NotFound.
  EXPECT_TRUE(heap_.Delete(*a).IsNotFound());
}

TEST_F(HeapFileTest, GetInvalidSlot) {
  auto rid = heap_.Insert("x");
  ASSERT_TRUE(rid.ok());
  RecordId bad = *rid;
  bad.slot = 99;
  EXPECT_TRUE(heap_.Get(bad).status().IsNotFound());
}

TEST_F(HeapFileTest, ScanOfEmptyHeapIsInvalid) {
  auto it = heap_.Begin();
  EXPECT_FALSE(it.Valid());
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 64), tree_(&disk_, &pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  BPlusTree tree_;
};

TEST_F(BTreeTest, EmptyTreeLookups) {
  auto values = tree_.Lookup(5);
  ASSERT_TRUE(values.ok());
  EXPECT_TRUE(values->empty());
  EXPECT_FALSE(tree_.Begin().Valid());
  EXPECT_EQ(tree_.NumEntries(), 0u);
  EXPECT_EQ(tree_.Height(), 1u);
}

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_.Insert(10, 100).ok());
  ASSERT_TRUE(tree_.Insert(20, 200).ok());
  ASSERT_TRUE(tree_.Insert(15, 150).ok());
  auto v = tree_.Lookup(15);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)[0], 150u);
  EXPECT_TRUE(tree_.Lookup(16)->empty());
  EXPECT_EQ(tree_.NumEntries(), 3u);
}

TEST_F(BTreeTest, DuplicateKeys) {
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_.Insert(7, 1000 + i).ok());
  }
  auto v = tree_.Lookup(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 10u);
  std::set<uint64_t> values(v->begin(), v->end());
  EXPECT_EQ(values.size(), 10u);
}

TEST_F(BTreeTest, SplitsKeepOrder) {
  // Enough entries to force several leaf splits and a root split.
  Random rng(17);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.UniformInt(0, 100000));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree_.Insert(keys[i], i).ok());
  }
  EXPECT_GT(tree_.Height(), 1u);
  EXPECT_EQ(tree_.NumEntries(), keys.size());
  std::vector<int64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  size_t index = 0;
  for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
    ASSERT_LT(index, sorted.size());
    EXPECT_EQ(it.key(), sorted[index]) << "at position " << index;
    ++index;
  }
  EXPECT_EQ(index, sorted.size());
}

TEST_F(BTreeTest, SeekGEFindsFirstAtLeast) {
  for (int64_t k = 0; k < 1000; k += 10) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  auto it = tree_.SeekGE(95);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 100);
  it = tree_.SeekGE(100);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 100);
  it = tree_.SeekGE(0);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 0);
  it = tree_.SeekGE(991);
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, RangeScan) {
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k * 2)).ok());
  }
  int64_t expected = 500;
  for (auto it = tree_.SeekGE(500); it.Valid() && it.key() <= 1500;
       it.Next()) {
    EXPECT_EQ(it.key(), expected);
    EXPECT_EQ(it.value(), static_cast<uint64_t>(expected * 2));
    ++expected;
  }
  EXPECT_EQ(expected, 1501);
}

TEST_F(BTreeTest, DuplicatesAcrossSplits) {
  // Insert many duplicates of a few keys to force duplicates to span leaves.
  for (int rep = 0; rep < 800; ++rep) {
    for (int64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(
          tree_.Insert(k, static_cast<uint64_t>(rep * 10 + k)).ok());
    }
  }
  for (int64_t k = 0; k < 3; ++k) {
    auto v = tree_.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->size(), 800u) << "key " << k;
  }
}

TEST_F(BTreeTest, DeleteRemovesSingleEntry) {
  ASSERT_TRUE(tree_.Insert(5, 50).ok());
  ASSERT_TRUE(tree_.Insert(5, 51).ok());
  ASSERT_TRUE(tree_.Delete(5, 50).ok());
  auto v = tree_.Lookup(5);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)[0], 51u);
  EXPECT_TRUE(tree_.Delete(5, 50).IsNotFound());
  EXPECT_TRUE(tree_.Delete(99, 1).IsNotFound());
  EXPECT_EQ(tree_.NumEntries(), 1u);
}

TEST_F(BTreeTest, DeleteInLargeTree) {
  for (int64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  for (int64_t k = 0; k < 3000; k += 2) {
    ASSERT_TRUE(tree_.Delete(k, static_cast<uint64_t>(k)).ok());
  }
  EXPECT_EQ(tree_.NumEntries(), 1500u);
  for (int64_t k = 0; k < 3000; ++k) {
    auto v = tree_.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->size(), (k % 2 == 0) ? 0u : 1u) << "key " << k;
  }
}

TEST_F(BTreeTest, WorksWithTinyBufferPool) {
  // The tree must function when the pool is much smaller than the tree.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  BPlusTree tree(&disk, &pool);
  for (int64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(tree.Insert(k * 7 % 4000, static_cast<uint64_t>(k)).ok());
  }
  EXPECT_EQ(tree.NumEntries(), 4000u);
  uint64_t count = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 4000u);
  EXPECT_GT(pool.stats().Misses(), 0u);
}

// FNV-1a over every page image on `disk`, in page-id order.
uint64_t HashPageImages(const DiskManager& disk) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  Page page;
  for (PageId id = 0; id < disk.NumPages(); ++id) {
    disk.ReadPage(id, &page);
    for (uint64_t i = 0; i < kPageSize; ++i) {
      hash ^= static_cast<unsigned char>(page.data()[i]);
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// Pins the tree's exact bytes and buffer-pool traffic for one fixed
// sequence on a pool small enough to evict: random inserts that reach
// height 3 (so internal nodes split), duplicate runs spanning several
// leaves, an ascending run, point and range reads, then deletes. Node
// layout, split points, the stale bytes past num_keys and every
// FetchPage/UnpinPage all feed these constants, so any change to how
// nodes are read or edited that is not byte-for-byte neutral fails here.
// They were recorded from the node code that copied each node out and
// wrote it back whole; change them only with a deliberate format change.
TEST(BTreeImageTest, PagesAndPoolTrafficArePinned) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  BPlusTree tree(&disk, &pool);
  Random rng(2026);
  std::vector<std::pair<int64_t, uint64_t>> entries;
  auto insert = [&](int64_t key, uint64_t value) {
    ASSERT_TRUE(tree.Insert(key, value).ok());
    entries.emplace_back(key, value);
  };
  for (uint64_t i = 0; i < 160000; ++i) {
    insert(rng.UniformInt(0, 999999), i);
  }
  for (int64_t key : {250000, 250001, 777777}) {
    for (uint64_t rep = 0; rep < 1200; ++rep) {
      insert(key, 1000000 + static_cast<uint64_t>(key) * 2000 + rep);
    }
  }
  for (int64_t key = 1000000; key < 1060000; ++key) {
    insert(key, static_cast<uint64_t>(key));
  }
  uint64_t looked_up = 0;
  for (int i = 0; i < 2000; ++i) {
    auto values = tree.Lookup(rng.UniformInt(0, 1100000));
    ASSERT_TRUE(values.ok());
    looked_up += values->size();
  }
  uint64_t ranged = 0;
  for (auto it = tree.SeekGE(249990); it.Valid() && it.key() <= 250010;
       it.Next()) {
    ++ranged;
  }
  for (size_t i = 0; i < entries.size(); i += 7) {
    ASSERT_TRUE(tree.Delete(entries[i].first, entries[i].second).ok());
  }
  EXPECT_TRUE(tree.Delete(250000, 0xdead).IsNotFound());
  EXPECT_TRUE(tree.Delete(-5, 1).IsNotFound());
  uint64_t scanned = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) ++scanned;

  EXPECT_EQ(tree.Height(), 3u);
  EXPECT_EQ(tree.NumPages(), 761u);
  EXPECT_EQ(tree.NumEntries(), 191657u);
  EXPECT_EQ(scanned, tree.NumEntries());
  EXPECT_EQ(looked_up, 404u);
  EXPECT_EQ(ranged, 2402u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 714534u);
  EXPECT_EQ(stats.sequential_misses, 0u);
  EXPECT_EQ(stats.random_misses, 162481u);
  EXPECT_EQ(stats.page_writes, 159537u);
  pool.FlushAll();
  EXPECT_EQ(HashPageImages(disk), 12188527343236617327ULL);
}

// Property test: tree contents always match a reference multimap across a
// random interleaving of inserts and deletes, for several seeds.
class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzzTest, MatchesReferenceMultimap) {
  SCOPED_TRACE("re-run this seed with VDB_TEST_SEED=" +
               std::to_string(GetParam()));
  DiskManager disk;
  BufferPool pool(&disk, 32);
  BPlusTree tree(&disk, &pool);
  std::multimap<int64_t, uint64_t> reference;
  Random rng(GetParam());
  for (int op = 0; op < 4000; ++op) {
    const int64_t key = rng.UniformInt(0, 200);
    if (rng.NextDouble() < 0.7 || reference.empty()) {
      const uint64_t value = rng.NextUint64() % 1000000;
      ASSERT_TRUE(tree.Insert(key, value).ok());
      reference.emplace(key, value);
    } else {
      auto it = reference.find(key);
      if (it != reference.end()) {
        ASSERT_TRUE(tree.Delete(key, it->second).ok());
        reference.erase(it);
      } else {
        EXPECT_TRUE(tree.Delete(key, 0xdead).IsNotFound());
      }
    }
  }
  ASSERT_EQ(tree.NumEntries(), reference.size());
  // Compare full ordered contents.
  auto it = tree.Begin();
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
  // Compare per-key value sets.
  for (int64_t key = 0; key <= 200; ++key) {
    auto values = tree.Lookup(key);
    ASSERT_TRUE(values.ok());
    auto range = reference.equal_range(key);
    std::multiset<uint64_t> expected;
    for (auto r = range.first; r != range.second; ++r) {
      expected.insert(r->second);
    }
    std::multiset<uint64_t> actual(values->begin(), values->end());
    EXPECT_EQ(actual, expected) << "key " << key;
  }
}

// Default seed spread, overridable with VDB_TEST_SEED=<n> to reproduce a
// single failing seed. The seed value is part of the test name.
std::vector<uint64_t> FuzzSeeds() {
  if (const char* env = std::getenv("VDB_TEST_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3, 5, 8, 13};
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds()),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vdb::storage
