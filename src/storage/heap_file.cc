#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

namespace vdb::storage {

namespace {

constexpr uint64_t kNumSlotsOff = 0;
constexpr uint64_t kFreeOffsetOff = 2;
constexpr uint64_t kSlotsStart = 4;
constexpr uint64_t kSlotSize = 4;  // u16 offset + u16 length

uint16_t NumSlots(const Page& page) {
  return page.ReadAt<uint16_t>(kNumSlotsOff);
}
uint16_t FreeOffset(const Page& page) {
  return page.ReadAt<uint16_t>(kFreeOffsetOff);
}
void ReadSlot(const Page& page, uint16_t slot, uint16_t* offset,
              uint16_t* length) {
  *offset = page.ReadAt<uint16_t>(kSlotsStart + slot * kSlotSize);
  *length = page.ReadAt<uint16_t>(kSlotsStart + slot * kSlotSize + 2);
}
void WriteSlot(Page* page, uint16_t slot, uint16_t offset, uint16_t length) {
  page->WriteAt<uint16_t>(kSlotsStart + slot * kSlotSize, offset);
  page->WriteAt<uint16_t>(kSlotsStart + slot * kSlotSize + 2, length);
}

// Free bytes available for one more record (including its slot).
uint64_t FreeBytes(const Page& page) {
  const uint64_t slots_end = kSlotsStart + NumSlots(page) * kSlotSize;
  const uint64_t free_off = FreeOffset(page);
  return free_off > slots_end ? free_off - slots_end : 0;
}

void InitPage(Page* page) {
  page->Zero();
  page->WriteAt<uint16_t>(kNumSlotsOff, 0);
  page->WriteAt<uint16_t>(kFreeOffsetOff,
                          static_cast<uint16_t>(kPageSize));
}

}  // namespace

Result<RecordId> HeapFile::Insert(
    std::string_view record, const std::vector<ZoneSample>* zone_samples) {
  const uint64_t need = record.size() + kSlotSize;
  if (record.size() + kSlotsStart + kSlotSize > kPageSize) {
    return Status::InvalidArgument("record too large for a page");
  }
  Page* page = nullptr;
  PageId page_id = kInvalidPageId;
  bool dirty_new_page = false;
  if (!pages_.empty()) {
    page_id = pages_.back();
    VDB_ASSIGN_OR_RETURN(page,
                         pool_->FetchPage(page_id, AccessPattern::kRandom));
    if (FreeBytes(*page) < need) {
      VDB_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
      page = nullptr;
    }
  }
  if (page == nullptr) {
    page_id = disk_->AllocatePage();
    pages_.push_back(page_id);
    zone_map_.AddPage();
    VDB_ASSIGN_OR_RETURN(page,
                         pool_->FetchPage(page_id, AccessPattern::kRandom));
    InitPage(page);
    dirty_new_page = true;
  }
  (void)dirty_new_page;
  const uint16_t num_slots = NumSlots(*page);
  const uint16_t new_offset =
      static_cast<uint16_t>(FreeOffset(*page) - record.size());
  std::memcpy(page->data() + new_offset, record.data(), record.size());
  WriteSlot(page, num_slots, new_offset,
            static_cast<uint16_t>(record.size()));
  page->WriteAt<uint16_t>(kNumSlotsOff, num_slots + 1);
  page->WriteAt<uint16_t>(kFreeOffsetOff, new_offset);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/true));
  ++num_records_;
  zone_map_.FoldInsert(zone_samples);
  return RecordId{page_id, num_slots};
}

Result<std::string> HeapFile::Get(RecordId rid, AccessPattern pattern) {
  VDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id, pattern));
  std::string result;
  Status status = Status::OK();
  if (rid.slot >= NumSlots(*page)) {
    status = Status::NotFound("record slot out of range");
  } else {
    uint16_t offset = 0;
    uint16_t length = 0;
    ReadSlot(*page, rid.slot, &offset, &length);
    if (offset == 0) {
      status = Status::NotFound("record deleted");
    } else {
      result.assign(page->data() + offset, length);
    }
  }
  VDB_RETURN_NOT_OK(pool_->UnpinPage(rid.page_id, /*dirty=*/false));
  if (!status.ok()) return status;
  return result;
}

Status HeapFile::Delete(RecordId rid) {
  VDB_ASSIGN_OR_RETURN(
      Page * page, pool_->FetchPage(rid.page_id, AccessPattern::kRandom));
  Status status = Status::OK();
  bool dirty = false;
  if (rid.slot >= NumSlots(*page)) {
    status = Status::NotFound("record slot out of range");
  } else {
    uint16_t offset = 0;
    uint16_t length = 0;
    ReadSlot(*page, rid.slot, &offset, &length);
    if (offset == 0) {
      status = Status::NotFound("record already deleted");
    } else {
      WriteSlot(page, rid.slot, 0, 0);
      dirty = true;
      --num_records_;
    }
  }
  VDB_RETURN_NOT_OK(pool_->UnpinPage(rid.page_id, dirty));
  return status;
}

namespace {

// Shared slot-directory walk for both scan variants: fills `out` with
// views of the live records of the page bytes at `data`.
void CollectLiveRecords(const char* data, PageId page_id,
                        std::vector<HeapFile::RecordView>* out) {
  uint16_t num_slots = 0;
  std::memcpy(&num_slots, data + kNumSlotsOff, sizeof(num_slots));
  out->reserve(num_slots);
  for (uint16_t slot = 0; slot < num_slots; ++slot) {
    uint16_t offset = 0;
    uint16_t length = 0;
    std::memcpy(&offset, data + kSlotsStart + slot * kSlotSize,
                sizeof(offset));
    std::memcpy(&length, data + kSlotsStart + slot * kSlotSize + 2,
                sizeof(length));
    if (offset == 0) continue;
    out->push_back(HeapFile::RecordView{
        RecordId{page_id, slot}, std::string_view(data + offset, length)});
  }
}

}  // namespace

std::vector<uint8_t> HeapFile::ComputePruneBitmap(
    const ScanPruneSpec& spec) const {
  std::vector<uint8_t> prune(pages_.size(), 0);
  if (spec.empty()) return prune;
  const std::vector<ZoneEntry>& entries = zone_map_.entries();
  for (size_t i = 0; i < entries.size() && i < prune.size(); ++i) {
    prune[i] = ZonePageCanPrune(entries[i], spec) ? 1 : 0;
  }
  return prune;
}

Result<bool> HeapFile::ReadPageForScan(
    size_t page_index, std::string* storage,
    std::vector<RecordView>* out) const {
  out->clear();
  if (page_index >= pages_.size()) return false;
  const PageId page_id = pages_[page_index];
  VDB_ASSIGN_OR_RETURN(
      Page * page, pool_->FetchPage(page_id, AccessPattern::kSequential));
  storage->assign(page->data(), kPageSize);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(page_id, /*dirty=*/false));
  CollectLiveRecords(storage->data(), page_id, out);
  return true;
}

Result<bool> HeapFile::ReadPageForScanPinned(
    size_t page_index, ScanPagePin* pin,
    std::vector<RecordView>* out) const {
  out->clear();
  // Release the previous page before fetching: with a near-full pool the
  // old pin could otherwise block the eviction the fetch needs.
  pin->Release();
  if (page_index >= pages_.size()) return false;
  const PageId page_id = pages_[page_index];
  VDB_ASSIGN_OR_RETURN(
      Page * page, pool_->FetchPage(page_id, AccessPattern::kSequential));
  pin->pool_ = pool_;
  pin->page_id_ = page_id;
  CollectLiveRecords(page->data(), page_id, out);
  return true;
}

HeapFile::Iterator::Iterator(const HeapFile* heap) : heap_(heap) {
  LoadPage();
}

void HeapFile::Iterator::Next() {
  if (!valid_) return;
  ++index_;
  if (index_ >= records_.size()) {
    ++page_index_;
    LoadPage();
  }
}

void HeapFile::Iterator::LoadPage() {
  records_.clear();
  index_ = 0;
  valid_ = false;
  while (page_index_ < heap_->pages_.size()) {
    const PageId page_id = heap_->pages_[page_index_];
    auto page_result =
        heap_->pool_->FetchPage(page_id, AccessPattern::kSequential);
    VDB_CHECK(page_result.ok()) << page_result.status();
    Page* page = *page_result;
    const uint16_t num_slots = NumSlots(*page);
    for (uint16_t slot = 0; slot < num_slots; ++slot) {
      uint16_t offset = 0;
      uint16_t length = 0;
      ReadSlot(*page, slot, &offset, &length);
      if (offset == 0) continue;
      records_.emplace_back(RecordId{page_id, slot},
                            std::string(page->data() + offset, length));
    }
    VDB_CHECK_OK(heap_->pool_->UnpinPage(page_id, /*dirty=*/false));
    if (!records_.empty()) {
      valid_ = true;
      return;
    }
    ++page_index_;
  }
}

}  // namespace vdb::storage
