// The simulated disk: a growable in-host-memory page array whose
// transfers to and from the buffer pool are observable for I/O charging.

#ifndef VDB_STORAGE_DISK_MANAGER_H_
#define VDB_STORAGE_DISK_MANAGER_H_

#include <memory>
#include <vector>

#include "storage/page.h"
#include "util/logging.h"

namespace vdb::storage {

/// The simulated disk: a growable array of pages held in host memory.
/// What matters is that every transfer between the disk and the buffer
/// pool is observable, so the executor can charge I/O time for it. It is
/// volatile: every database is loaded afresh at start-up, and nothing
/// outlives the process.
class DiskManager {
 public:
  DiskManager() = default;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a fresh zeroed page and returns its id.
  PageId AllocatePage() {
    pages_.push_back(std::make_unique<Page>());
    return pages_.size() - 1;
  }

  uint64_t NumPages() const { return pages_.size(); }

  /// Copies page contents from disk into `out`.
  void ReadPage(PageId page_id, Page* out) const {
    VDB_CHECK(page_id < pages_.size());
    *out = *pages_[page_id];
  }

  /// Copies page contents from `in` onto disk.
  void WritePage(PageId page_id, const Page& in) {
    VDB_CHECK(page_id < pages_.size());
    *pages_[page_id] = in;
  }

 private:
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace vdb::storage

#endif  // VDB_STORAGE_DISK_MANAGER_H_
