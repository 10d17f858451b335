#include "storage/buffer_pool.h"

#include <algorithm>

namespace vdb::storage {

BufferPool::BufferPool(DiskManager* disk, uint64_t capacity_pages)
    : disk_(disk), capacity_(std::max<uint64_t>(1, capacity_pages)) {
  frames_.resize(capacity_);
  free_list_.reserve(capacity_);
  for (size_t i = capacity_; i-- > 0;) free_list_.push_back(i);
}

Result<Page*> BufferPool::FetchPage(PageId page_id, AccessPattern pattern) {
  auto it = table_.find(page_id);
  if (it != table_.end()) {
    Frame& frame = frames_[it->second];
    frame.pin_count++;
    frame.referenced = true;
    stats_.hits++;
    return &frame.page;
  }
  // Miss: find a frame.
  size_t frame_index;
  if (!free_list_.empty()) {
    frame_index = free_list_.back();
    free_list_.pop_back();
  } else {
    VDB_ASSIGN_OR_RETURN(frame_index, EvictOne());
  }
  Frame& frame = frames_[frame_index];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.referenced = true;
  disk_->ReadPage(page_id, &frame.page);
  table_[page_id] = frame_index;
  if (pattern == AccessPattern::kSequential) {
    stats_.sequential_misses++;
  } else {
    stats_.random_misses++;
  }
  if (listener_ != nullptr) listener_->OnPageRead(pattern);
  return &frame.page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  auto it = table_.find(page_id);
  if (it == table_.end()) {
    return Status::NotFound("UnpinPage: page not in pool");
  }
  Frame& frame = frames_[it->second];
  if (frame.pin_count == 0) {
    return Status::Internal("UnpinPage: pin count already zero");
  }
  frame.pin_count--;
  frame.dirty = frame.dirty || dirty;
  return Status::OK();
}

void BufferPool::FlushAll() {
  for (Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.dirty) {
      FlushFrame(&frame);
    }
  }
}

Status BufferPool::EvictAll() {
  for (Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.pin_count > 0) {
      return Status::ResourceExhausted("EvictAll: a page is pinned");
    }
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.page_id == kInvalidPageId) continue;
    if (frame.dirty) FlushFrame(&frame);
    table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    frame.referenced = false;
    free_list_.push_back(i);
  }
  return Status::OK();
}

Status BufferPool::Resize(uint64_t new_capacity_pages) {
  new_capacity_pages = std::max<uint64_t>(1, new_capacity_pages);
  if (new_capacity_pages == capacity_) return Status::OK();
  uint64_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.pin_count > 0) ++pinned;
  }
  if (pinned > new_capacity_pages) {
    return Status::ResourceExhausted("Resize: more pages pinned than fit");
  }
  // Rebuild the frame array, keeping as many cached pages as fit
  // (pinned pages first, then most-recently-referenced ones).
  std::vector<Frame> old_frames = std::move(frames_);
  frames_.clear();
  frames_.resize(new_capacity_pages);
  table_.clear();
  free_list_.clear();
  capacity_ = new_capacity_pages;
  clock_hand_ = 0;

  std::stable_sort(old_frames.begin(), old_frames.end(),
                   [](const Frame& a, const Frame& b) {
                     auto rank = [](const Frame& f) {
                       if (f.page_id == kInvalidPageId) return 2;
                       if (f.pin_count > 0) return 0;
                       return 1;
                     };
                     return rank(a) < rank(b);
                   });
  size_t next = 0;
  for (Frame& frame : old_frames) {
    if (frame.page_id == kInvalidPageId) continue;
    if (next < new_capacity_pages) {
      table_[frame.page_id] = next;
      frames_[next] = std::move(frame);
      ++next;
    } else {
      if (frame.dirty) FlushFrame(&frame);
    }
  }
  for (size_t i = new_capacity_pages; i-- > next;) free_list_.push_back(i);
  return Status::OK();
}

Result<size_t> BufferPool::EvictOne() {
  // CLOCK: sweep until we find an unpinned, unreferenced frame.
  const size_t n = frames_.size();
  for (size_t sweep = 0; sweep < 2 * n + 1; ++sweep) {
    Frame& frame = frames_[clock_hand_];
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (frame.page_id == kInvalidPageId || frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) FlushFrame(&frame);
    table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    return index;
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

void BufferPool::FlushFrame(Frame* frame) {
  disk_->WritePage(frame->page_id, frame->page);
  frame->dirty = false;
  stats_.page_writes++;
  if (listener_ != nullptr) listener_->OnPageWrite();
}

}  // namespace vdb::storage
