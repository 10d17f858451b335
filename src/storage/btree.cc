#include "storage/btree.h"

#include <cstring>

#include "util/logging.h"

namespace vdb::storage {

namespace {

// Node layout constants. A node is one page:
//   @0  u16  is_leaf
//   @2  u16  num_keys
//   @8  u64  next_leaf (leaves only)
//   @16 i64  keys[capacity]
//   @16+8*capacity
//       u64  values[capacity]          (leaf)
//       u64  children[capacity + 1]    (internal)
constexpr uint64_t kIsLeafOff = 0;
constexpr uint64_t kNumKeysOff = 2;
constexpr uint64_t kNextLeafOff = 8;
constexpr uint64_t kKeysOff = 16;
constexpr size_t kLeafCapacity = 500;
constexpr size_t kInternalCapacity = 500;
constexpr uint64_t kLeafValuesOff = kKeysOff + 8 * kLeafCapacity;
constexpr uint64_t kChildrenOff = kKeysOff + 8 * kInternalCapacity;

static_assert(kLeafValuesOff + 8 * kLeafCapacity <= kPageSize);
static_assert(kChildrenOff + 8 * (kInternalCapacity + 1) <= kPageSize);

// Nodes are read and edited in place on their pinned frame. An edit
// writes only the slots it changes: bytes past num_keys keep whatever a
// longer node left there, which is part of the on-page image.

bool IsLeaf(const Page& page) { return page.ReadAt<uint16_t>(kIsLeafOff) != 0; }

size_t NumKeys(const Page& page) {
  return page.ReadAt<uint16_t>(kNumKeysOff);
}

void SetNumKeys(Page* page, size_t n) {
  page->WriteAt<uint16_t>(kNumKeysOff, static_cast<uint16_t>(n));
}

int64_t KeyAt(const Page& page, size_t i) {
  return page.ReadAt<int64_t>(kKeysOff + 8 * i);
}

uint64_t LeafValueAt(const Page& page, size_t i) {
  return page.ReadAt<uint64_t>(kLeafValuesOff + 8 * i);
}

PageId ChildAt(const Page& page, size_t i) {
  return page.ReadAt<uint64_t>(kChildrenOff + 8 * i);
}

PageId NextLeaf(const Page& page) {
  return page.ReadAt<uint64_t>(kNextLeafOff);
}

// Binary search over a node's sorted key array: the first slot in [0, n)
// whose key fails `before` (std::partition_point over the page in place).
template <typename Pred>
size_t PartitionPoint(const Page& page, size_t n, Pred before) {
  size_t lo = 0;
  while (n > 0) {
    const size_t half = n / 2;
    if (before(KeyAt(page, lo + half))) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

// Insertion descend: equal keys go right of a separator.
size_t UpperBound(const Page& page, size_t n, int64_t key) {
  return PartitionPoint(page, n, [key](int64_t k) { return k <= key; });
}

// Search descend: finds the leftmost occurrence of a duplicated key.
size_t LowerBound(const Page& page, size_t n, int64_t key) {
  return PartitionPoint(page, n, [key](int64_t k) { return k < key; });
}

// Opens slot `pos` of the `n`-entry 8-byte array at `off` and stores `v`.
void InsertSlot(Page* page, uint64_t off, size_t n, size_t pos, uint64_t v) {
  char* base = page->data() + off;
  std::memmove(base + 8 * (pos + 1), base + 8 * pos, 8 * (n - pos));
  std::memcpy(base + 8 * pos, &v, 8);
}

// Closes slot `pos` of the `n`-entry 8-byte array at `off`; slot n - 1
// keeps its old bytes.
void EraseSlot(Page* page, uint64_t off, size_t n, size_t pos) {
  char* base = page->data() + off;
  std::memmove(base + 8 * pos, base + 8 * (pos + 1), 8 * (n - pos - 1));
}

// `count` 8-byte entries between a node's array at `off` and memory.
void ReadSlots(const Page& page, uint64_t off, size_t count, void* out) {
  std::memcpy(out, page.data() + off, 8 * count);
}

void WriteSlots(Page* page, uint64_t off, size_t count, const void* in) {
  std::memcpy(page->data() + off, in, 8 * count);
}

// Reads the `n`-entry array at `off` into `out` with `v` inserted at
// `pos`: the capacity + 1 image of a node that is about to split.
template <typename T>
void ReadWithInsert(const Page& page, uint64_t off, size_t n, size_t pos,
                    T v, T* out) {
  ReadSlots(page, off, pos, out);
  out[pos] = v;
  ReadSlots(page, off + 8 * pos, n - pos, out + pos + 1);
}

}  // namespace

BPlusTree::BPlusTree(DiskManager* disk, BufferPool* pool)
    : disk_(disk), pool_(pool) {
  root_ = NewLeaf();
}

PageId BPlusTree::NewLeaf() {
  const PageId id = disk_->AllocatePage();
  auto page = pool_->FetchPage(id, AccessPattern::kRandom);
  VDB_CHECK(page.ok()) << page.status();
  (*page)->WriteAt<uint16_t>(kIsLeafOff, 1);
  SetNumKeys(*page, 0);
  (*page)->WriteAt<uint64_t>(kNextLeafOff, kInvalidPageId);
  VDB_CHECK_OK(pool_->UnpinPage(id, /*dirty=*/true));
  ++num_pages_;
  return id;
}

PageId BPlusTree::NewInternal() {
  const PageId id = disk_->AllocatePage();
  auto page = pool_->FetchPage(id, AccessPattern::kRandom);
  VDB_CHECK(page.ok()) << page.status();
  (*page)->WriteAt<uint16_t>(kIsLeafOff, 0);
  SetNumKeys(*page, 0);
  (*page)->WriteAt<uint64_t>(kChildrenOff, kInvalidPageId);
  VDB_CHECK_OK(pool_->UnpinPage(id, /*dirty=*/true));
  ++num_pages_;
  return id;
}

Result<PageId> BPlusTree::FindLeaf(int64_t key, std::vector<PageId>* path) {
  PageId current = root_;
  for (;;) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const bool leaf = IsLeaf(*page);
    const PageId child =
        leaf ? kInvalidPageId
             : ChildAt(*page, UpperBound(*page, NumKeys(*page), key));
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return current;
    if (path != nullptr) path->push_back(current);
    current = child;
  }
}

Status BPlusTree::Insert(int64_t key, uint64_t value) {
  std::vector<PageId> path;
  VDB_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key, &path));
  VDB_RETURN_NOT_OK(InsertIntoLeaf(leaf, key, value, path));
  ++num_entries_;
  return Status::OK();
}

Status BPlusTree::InsertIntoLeaf(PageId leaf_id, int64_t key, uint64_t value,
                                 std::vector<PageId>& path) {
  VDB_ASSIGN_OR_RETURN(Page * page,
                       pool_->FetchPage(leaf_id, AccessPattern::kRandom));
  const size_t n = NumKeys(*page);
  const size_t pos = UpperBound(*page, n, key);
  if (n < kLeafCapacity) {
    InsertSlot(page, kKeysOff, n, pos, static_cast<uint64_t>(key));
    InsertSlot(page, kLeafValuesOff, n, pos, value);
    SetNumKeys(page, n + 1);
    return pool_->UnpinPage(leaf_id, /*dirty=*/true);
  }
  // Split: the right half of the capacity + 1 entries moves to a new leaf.
  int64_t keys[kLeafCapacity + 1] = {};
  uint64_t values[kLeafCapacity + 1] = {};
  ReadWithInsert(*page, kKeysOff, n, pos, key, keys);
  ReadWithInsert(*page, kLeafValuesOff, n, pos, value, values);
  const size_t total = n + 1;
  const size_t mid = total / 2;
  const PageId old_next = NextLeaf(*page);

  const PageId right_id = NewLeaf();
  SetNumKeys(page, mid);
  WriteSlots(page, kKeysOff, mid, keys);
  page->WriteAt<uint64_t>(kNextLeafOff, right_id);
  WriteSlots(page, kLeafValuesOff, mid, values);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(leaf_id, /*dirty=*/true));

  VDB_ASSIGN_OR_RETURN(Page * right_page,
                       pool_->FetchPage(right_id, AccessPattern::kRandom));
  SetNumKeys(right_page, total - mid);
  WriteSlots(right_page, kKeysOff, total - mid, keys + mid);
  right_page->WriteAt<uint64_t>(kNextLeafOff, old_next);
  WriteSlots(right_page, kLeafValuesOff, total - mid, values + mid);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(right_id, /*dirty=*/true));

  return InsertIntoParent(path, keys[mid], right_id);
}

Status BPlusTree::InsertIntoParent(std::vector<PageId>& path, int64_t key,
                                   PageId right_child) {
  if (path.empty()) {
    // Root split: make a new root above the two children.
    const PageId new_root = NewInternal();
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(new_root, AccessPattern::kRandom));
    SetNumKeys(page, 1);
    page->WriteAt<int64_t>(kKeysOff, key);
    page->WriteAt<uint64_t>(kChildrenOff, root_);
    page->WriteAt<uint64_t>(kChildrenOff + 8, right_child);
    VDB_RETURN_NOT_OK(pool_->UnpinPage(new_root, /*dirty=*/true));
    root_ = new_root;
    ++height_;
    return Status::OK();
  }
  const PageId parent_id = path.back();
  path.pop_back();
  VDB_ASSIGN_OR_RETURN(Page * page,
                       pool_->FetchPage(parent_id, AccessPattern::kRandom));
  const size_t n = NumKeys(*page);
  const size_t pos = UpperBound(*page, n, key);
  if (n < kInternalCapacity) {
    InsertSlot(page, kKeysOff, n, pos, static_cast<uint64_t>(key));
    InsertSlot(page, kChildrenOff, n + 1, pos + 1, right_child);
    SetNumKeys(page, n + 1);
    return pool_->UnpinPage(parent_id, /*dirty=*/true);
  }
  // Split internal node: the middle key moves up.
  int64_t keys[kInternalCapacity + 1] = {};
  PageId children[kInternalCapacity + 2] = {};
  ReadWithInsert(*page, kKeysOff, n, pos, key, keys);
  ReadWithInsert(*page, kChildrenOff, n + 1, pos + 1, right_child, children);
  const size_t total = n + 1;
  const size_t mid = total / 2;
  SetNumKeys(page, mid);
  WriteSlots(page, kKeysOff, mid, keys);
  WriteSlots(page, kChildrenOff, mid + 1, children);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(parent_id, /*dirty=*/true));

  const PageId right_id = NewInternal();
  VDB_ASSIGN_OR_RETURN(Page * right_page,
                       pool_->FetchPage(right_id, AccessPattern::kRandom));
  const size_t right_keys = total - mid - 1;
  SetNumKeys(right_page, right_keys);
  WriteSlots(right_page, kKeysOff, right_keys, keys + mid + 1);
  WriteSlots(right_page, kChildrenOff, right_keys + 1, children + mid + 1);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(right_id, /*dirty=*/true));

  return InsertIntoParent(path, keys[mid], right_id);
}

Status BPlusTree::Delete(int64_t key, uint64_t value) {
  // Descend to the leftmost leaf that can contain `key` (search descend),
  // then walk the leaf chain; duplicates may span multiple leaves.
  PageId current = root_;
  for (;;) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const bool leaf = IsLeaf(*page);
    const PageId child =
        leaf ? kInvalidPageId
             : ChildAt(*page, LowerBound(*page, NumKeys(*page), key));
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) break;
    current = child;
  }
  while (current != kInvalidPageId) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const size_t n = NumKeys(*page);
    bool removed = false;
    for (size_t i = LowerBound(*page, n, key); i < n && KeyAt(*page, i) == key;
         ++i) {
      if (LeafValueAt(*page, i) == value) {
        EraseSlot(page, kKeysOff, n, i);
        EraseSlot(page, kLeafValuesOff, n, i);
        SetNumKeys(page, n - 1);
        removed = true;
        break;
      }
    }
    const PageId next = NextLeaf(*page);
    const bool past = !removed && n > 0 && KeyAt(*page, 0) > key;
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, removed));
    if (removed) {
      --num_entries_;
      return Status::OK();
    }
    if (past) break;
    current = next;
  }
  return Status::NotFound("key/value pair not in tree");
}

Result<std::vector<uint64_t>> BPlusTree::Lookup(int64_t key) {
  std::vector<uint64_t> result;
  for (Iterator it = SeekGE(key); it.Valid() && it.key() == key; it.Next()) {
    result.push_back(it.value());
  }
  return result;
}

BPlusTree::Iterator BPlusTree::SeekGE(int64_t key) {
  // Search descend: equal separators go left so we find the leftmost
  // occurrence of a duplicated key.
  PageId current = root_;
  for (;;) {
    auto page_result = pool_->FetchPage(current, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const Page& page = **page_result;
    const bool leaf = IsLeaf(page);
    const size_t idx = LowerBound(page, NumKeys(page), key);
    const PageId child = leaf ? kInvalidPageId : ChildAt(page, idx);
    VDB_CHECK_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return Iterator(this, current, idx);
    current = child;
  }
}

BPlusTree::Iterator BPlusTree::Begin() {
  PageId current = root_;
  for (;;) {
    auto page_result = pool_->FetchPage(current, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const bool leaf = IsLeaf(**page_result);
    const PageId child = leaf ? kInvalidPageId : ChildAt(**page_result, 0);
    VDB_CHECK_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return Iterator(this, current, 0);
    current = child;
  }
}

BPlusTree::Iterator::Iterator(BPlusTree* tree, PageId leaf,
                              size_t start_index)
    : tree_(tree) {
  LoadLeaf(leaf, start_index);
}

void BPlusTree::Iterator::LoadLeaf(PageId leaf, size_t start_index) {
  valid_ = false;
  keys_.clear();
  values_.clear();
  index_ = 0;
  while (leaf != kInvalidPageId) {
    auto page_result = tree_->pool_->FetchPage(leaf, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const Page& page = **page_result;
    const size_t n = NumKeys(page);
    next_leaf_ = NextLeaf(page);
    if (start_index < n) {
      keys_.resize(n - start_index);
      values_.resize(n - start_index);
      ReadSlots(page, kKeysOff + 8 * start_index, n - start_index,
                keys_.data());
      ReadSlots(page, kLeafValuesOff + 8 * start_index, n - start_index,
                values_.data());
      valid_ = true;
    }
    VDB_CHECK_OK(tree_->pool_->UnpinPage(leaf, /*dirty=*/false));
    if (valid_) return;
    leaf = next_leaf_;
    start_index = 0;
  }
  next_leaf_ = kInvalidPageId;
}

void BPlusTree::Iterator::Next() {
  if (!valid_) return;
  ++index_;
  if (index_ >= keys_.size()) {
    LoadLeaf(next_leaf_, 0);
  }
}

}  // namespace vdb::storage
