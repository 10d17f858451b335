// HeapFile: unordered variable-length records in slotted pages, the
// backing store for every table.

#ifndef VDB_STORAGE_HEAP_FILE_H_
#define VDB_STORAGE_HEAP_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/zone_map.h"
#include "util/result.h"

namespace vdb::storage {

/// An unordered collection of variable-length records in slotted pages.
///
/// Page layout:
///   [u16 num_slots][u16 free_space_offset][slot 0][slot 1]...    (from front)
///   ...record bytes packed towards the end of the page...        (from back)
/// Each slot is {u16 offset, u16 length}; a deleted record has offset 0.
class HeapFile {
 public:
  HeapFile(DiskManager* disk, BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record. Fails with InvalidArgument if it cannot fit on an
  /// empty page. `zone_samples` — one entry per schema column, produced by
  /// the catalog — folds into the landing page's zone entry; a nullptr
  /// (schema-blind caller) marks that page untracked so it never prunes.
  Result<RecordId> Insert(std::string_view record,
                          const std::vector<ZoneSample>* zone_samples =
                              nullptr);

  /// Reads one record by id (a random page access unless the caller knows
  /// better). Returns NotFound for deleted or out-of-range ids.
  Result<std::string> Get(RecordId rid,
                          AccessPattern pattern = AccessPattern::kRandom);

  /// Marks a record deleted. Space is not reclaimed (append-mostly design,
  /// like PostgreSQL heap without vacuum).
  Status Delete(RecordId rid);

  uint64_t NumPages() const { return pages_.size(); }
  uint64_t NumRecords() const { return num_records_; }

  /// Sequentially scans all records. Usage:
  ///   for (auto it = heap.Begin(); it.Valid(); it.Next()) use(it.record());
  /// The iterator buffers one page of records at a time and issues
  /// sequential page reads through the buffer pool.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    void Next();
    const std::string& record() const { return records_[index_].second; }
    RecordId rid() const { return records_[index_].first; }

   private:
    friend class HeapFile;
    explicit Iterator(const HeapFile* heap);
    void LoadPage();

    const HeapFile* heap_;
    size_t page_index_ = 0;
    std::vector<std::pair<RecordId, std::string>> records_;
    size_t index_ = 0;
    bool valid_ = false;
  };

  Iterator Begin() const { return Iterator(this); }

  /// One live record of a page, viewed in place (no per-record copy).
  struct RecordView {
    RecordId rid;
    std::string_view data;
  };

  /// Reads the `page_index`-th page (a sequential access) and fills `out`
  /// with views of its live records, backed by `storage` (the raw page
  /// bytes, reused across calls — views stay valid until the next call).
  /// Returns false once `page_index` is past the last page. Used by the
  /// morsel coordinator, which needs self-contained page bytes to hand
  /// to workers.
  Result<bool> ReadPageForScan(size_t page_index, std::string* storage,
                               std::vector<RecordView>* out) const;

  /// Holds the buffer-pool pin backing a zero-copy page scan. Views from
  /// ReadPageForScanPinned stay valid until the next call with the same
  /// pin (which releases the previous page first) or Release(); the
  /// destructor releases too, so an abandoned scan cannot leak a pin.
  /// A scan holds at most one pinned page at a time.
  class ScanPagePin {
   public:
    ScanPagePin() = default;
    ~ScanPagePin() { Release(); }
    ScanPagePin(const ScanPagePin&) = delete;
    ScanPagePin& operator=(const ScanPagePin&) = delete;

    void Release() {
      if (pool_ != nullptr) {
        (void)pool_->UnpinPage(page_id_, /*dirty=*/false);
        pool_ = nullptr;
      }
    }

   private:
    friend class HeapFile;
    BufferPool* pool_ = nullptr;
    PageId page_id_ = kInvalidPageId;
  };

  /// Zero-copy variant of ReadPageForScan for the serial batch executor:
  /// record views point straight into the pinned frame (no page-sized
  /// copy per page). The pin keeps the frame from being evicted while
  /// the caller deserializes; page charges are identical to the copying
  /// variant (same FetchPage access pattern).
  Result<bool> ReadPageForScanPinned(size_t page_index, ScanPagePin* pin,
                                     std::vector<RecordView>* out) const;

  /// Page ids in append order.
  const std::vector<PageId>& pages() const { return pages_; }

  /// Per-page zone statistics, parallel to pages().
  const ZoneMap& zone_map() const { return zone_map_; }

  /// Evaluates `spec` against every page's zone entry: out[i] is true when
  /// page i provably holds no qualifying row and can be skipped without a
  /// fetch. This is the single pruning decision point shared by the row
  /// executor, the serial batch scan, and the morsel coordinator, so all
  /// engines skip exactly the same pages.
  std::vector<uint8_t> ComputePruneBitmap(const ScanPruneSpec& spec) const;

 private:
  // Number of live (non-deleted) records on the given page; loads via pool.
  friend class Iterator;

  DiskManager* disk_;
  BufferPool* pool_;
  std::vector<PageId> pages_;
  /// Per-page column statistics, parallel to `pages_` (DESIGN.md §16).
  ZoneMap zone_map_;
  uint64_t num_records_ = 0;
};

}  // namespace vdb::storage

#endif  // VDB_STORAGE_HEAP_FILE_H_
