// Page-based B+-tree secondary index mapping int64 keys to packed
// RecordIds.

#ifndef VDB_STORAGE_BTREE_H_
#define VDB_STORAGE_BTREE_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"

namespace vdb::storage {

/// A page-based B+-tree mapping int64 keys to 64-bit values (packed
/// RecordIds). Duplicate keys are allowed — equal keys are stored adjacently
/// and returned in insertion order by range scans.
///
/// All page accesses go through the buffer pool as *random* reads, matching
/// how optimizers cost index traversals. Deletion removes leaf entries
/// without rebalancing (PostgreSQL-style lazy deletion). Nodes are searched
/// and edited in place on their pinned frames; only a splitting node is
/// staged in a capacity + 1 scratch array.
class BPlusTree {
 public:
  BPlusTree(DiskManager* disk, BufferPool* pool);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts a (key, value) entry.
  Status Insert(int64_t key, uint64_t value);

  /// Removes one entry matching (key, value). NotFound if absent.
  Status Delete(int64_t key, uint64_t value);

  /// Collects the values of all entries with exactly `key`.
  Result<std::vector<uint64_t>> Lookup(int64_t key);

  /// Number of entries in the tree.
  uint64_t NumEntries() const { return num_entries_; }

  /// Number of pages the tree occupies (for optimizer costing).
  uint64_t NumPages() const { return num_pages_; }

  /// Tree height in levels (1 = just a root leaf).
  uint32_t Height() const { return height_; }

  /// Streams entries with key in [lo, hi] in key order.
  ///   for (auto it = tree.SeekGE(lo); it.Valid() && it.key() <= hi;
  ///        it.Next()) ...
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    void Next();
    int64_t key() const { return keys_[index_]; }
    uint64_t value() const { return values_[index_]; }

   private:
    friend class BPlusTree;
    Iterator(BPlusTree* tree, PageId leaf, size_t start_index);
    void LoadLeaf(PageId leaf, size_t start_index);

    BPlusTree* tree_;
    PageId next_leaf_ = kInvalidPageId;
    // The current leaf's entries from the start position on, copied out
    // because the leaf is unpinned between calls.
    std::vector<int64_t> keys_;
    std::vector<uint64_t> values_;
    size_t index_ = 0;
    bool valid_ = false;
  };

  /// Iterator positioned at the first entry with key >= `key`.
  Iterator SeekGE(int64_t key);

  /// Iterator over the whole tree in key order.
  Iterator Begin();

 private:
  friend class Iterator;

  // Descends from the root to the leaf that should contain `key`,
  // recording the path of internal page ids (for splits).
  Result<PageId> FindLeaf(int64_t key, std::vector<PageId>* path);

  // Splits a full leaf; returns the separator key and new right page id.
  Status InsertIntoLeaf(PageId leaf_id, int64_t key, uint64_t value,
                        std::vector<PageId>& path);

  // Inserts (key, right_child) into the parent chain, splitting as needed.
  Status InsertIntoParent(std::vector<PageId>& path, int64_t key,
                          PageId right_child);

  PageId NewLeaf();
  PageId NewInternal();

  DiskManager* disk_;
  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint64_t num_pages_ = 0;
  uint32_t height_ = 1;
};

}  // namespace vdb::storage

#endif  // VDB_STORAGE_BTREE_H_
