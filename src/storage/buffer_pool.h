// BufferPool: clock-eviction page cache over the simulated disk,
// charging hits and misses to the execution context.

#ifndef VDB_STORAGE_BUFFER_POOL_H_
#define VDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace vdb::storage {

/// How a page read was issued. Sequential reads (table scans) amortize disk
/// bandwidth; random reads (index probes) pay a seek. The distinction drives
/// both the simulated I/O time and the optimizer's seq/random page costs.
enum class AccessPattern { kSequential, kRandom };

/// Observer of physical I/O events. The executor installs one to convert
/// page transfers into simulated time on the owning virtual machine.
class IoListener {
 public:
  virtual ~IoListener() = default;
  virtual void OnPageRead(AccessPattern pattern) = 0;
  virtual void OnPageWrite() = 0;
};

/// Cumulative buffer pool counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t sequential_misses = 0;
  uint64_t random_misses = 0;
  uint64_t page_writes = 0;

  uint64_t Misses() const { return sequential_misses + random_misses; }
  double HitRate() const {
    const uint64_t total = hits + Misses();
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A fixed-capacity page cache with CLOCK replacement, in the mold of a
/// DBMS shared-buffers pool. The capacity is derived from the memory the
/// virtual machine grants the database, so changing the VM's memory share
/// changes hit rates — the mechanism behind memory sensitivity in the paper.
///
/// Eviction contract: pinned frames are never evicted (FetchPage fails
/// with ResourceExhausted when every frame is pinned), and the CLOCK hand
/// gives each frame one second chance before reuse.
class BufferPool {
 public:
  /// `capacity_pages` must be >= 1.
  BufferPool(DiskManager* disk, uint64_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint64_t capacity_pages() const { return capacity_; }

  /// Returns a pinned pointer to the page. Callers must UnpinPage() when
  /// done. Fails with ResourceExhausted if every frame is pinned.
  Result<Page*> FetchPage(PageId page_id, AccessPattern pattern);

  /// Releases one pin; `dirty` marks the page as modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes back all dirty pages (counts as page writes).
  void FlushAll();

  /// Drops every unpinned page from the pool, flushing dirty ones first.
  /// Used to cold-start measurement runs. Fails if any page is pinned.
  Status EvictAll();

  /// Grows or shrinks the pool. Shrinking evicts unpinned pages; fails with
  /// ResourceExhausted if more pages are pinned than the new capacity.
  Status Resize(uint64_t new_capacity_pages);

  /// Installs (or clears, with nullptr) the physical-I/O observer.
  void SetIoListener(IoListener* listener) { listener_ = listener; }

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats(); }

  uint64_t NumCachedPages() const { return table_.size(); }

 private:
  struct Frame {
    PageId page_id = kInvalidPageId;
    Page page;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool referenced = false;
  };

  // Picks a victim frame via CLOCK; returns frame index or error if all
  // frames are pinned. Flushes the victim if dirty and removes its mapping.
  Result<size_t> EvictOne();

  void FlushFrame(Frame* frame);

  DiskManager* disk_;
  uint64_t capacity_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> table_;
  std::vector<size_t> free_list_;
  size_t clock_hand_ = 0;
  IoListener* listener_ = nullptr;
  BufferPoolStats stats_;
};

}  // namespace vdb::storage

#endif  // VDB_STORAGE_BUFFER_POOL_H_
