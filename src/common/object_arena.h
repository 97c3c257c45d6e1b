// Chunked object arena for non-default-constructible types.
//
// SlabArena (common/arena.h) stores value-initialised rows; Connection
// and friends need constructor arguments, so this arena keeps raw
// aligned storage and placement-constructs into it.  Same guarantees,
// same reasons (docs/PERFORMANCE.md):
//
//  - Stable addresses: objects live in fixed-size chunks that are never
//    reallocated, so references held by the simulator's queued events
//    stay valid while the arena grows.
//
//  - Deterministic ids: fresh ids increase monotonically and released
//    ids recycle lowest-id-first, so placement depends only on the
//    create/destroy history — never on heap addresses (the repo's
//    determinism rules, docs/STATIC_ANALYSIS.md).
//
// Against one-heap-allocation-per-object (make_unique), the arena packs
// objects of one type contiguously: a stack's live connections end up
// shoulder to shoulder instead of scattered across the allocator, which
// is what the per-ACK demux path wants to find in cache.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>  // std::launder
#include <utility>
#include <vector>

#include "common/ensure.h"

namespace vegas {

template <typename T>
class ObjectArena {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = 0xffffffff;

  /// Objects per chunk; a power of two keeps id -> (chunk, offset) a
  /// shift and a mask.  Smaller than SlabArena's because T is typically
  /// a full protocol object, not a packed row.
  static constexpr std::size_t kChunkBits = 9;
  static constexpr std::size_t kChunkObjs = std::size_t{1} << kChunkBits;

  ObjectArena() = default;
  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  /// Destroys every still-live object, lowest id first (deterministic
  /// teardown order for objects the owner never destroyed explicitly).
  ~ObjectArena() {
    for (Id id = 0; id < watermark_; ++id) {
      if (live_[id]) ptr(id)->~T();
    }
  }

  /// Constructs a T in the lowest recycled slot, else a fresh one.
  template <typename... Args>
  std::pair<Id, T*> create(Args&&... args) {
    Id id;
    if (!free_heap_.empty()) {
      std::pop_heap(free_heap_.begin(), free_heap_.end(),
                    std::greater<Id>{});  // min-heap: lowest id first
      id = free_heap_.back();
      free_heap_.pop_back();
    } else {
      ensure(watermark_ < kInvalidId, "ObjectArena: id space exhausted");
      id = watermark_++;
      if ((id >> kChunkBits) >= chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkObjs));
        live_.resize(chunks_.size() << kChunkBits, false);
      }
    }
    T* obj = new (raw(id)) T(std::forward<Args>(args)...);  // lint: raw-new-ok
    live_[id] = true;
    ++live_count_;
    return {id, obj};
  }

  /// Destroys the object and returns its slot to the free pool.  The
  /// storage stays valid (but dead) until the id is handed out again.
  void destroy(Id id) {
    ensure(id < watermark_ && live_[id], "ObjectArena::destroy: id not live");
    ptr(id)->~T();
    live_[id] = false;
    free_heap_.push_back(id);
    std::push_heap(free_heap_.begin(), free_heap_.end(), std::greater<Id>{});
    --live_count_;
  }

  T* get(Id id) { return live_[id] ? ptr(id) : nullptr; }

  /// Pre-allocates chunks for `n` objects (capacity hint; ids and
  /// addresses are identical with or without it).
  void reserve(std::size_t n) {
    const std::size_t want = (n + kChunkObjs - 1) >> kChunkBits;
    chunks_.reserve(want);
    while (chunks_.size() < want) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkObjs));
    }
    if (live_.size() < (chunks_.size() << kChunkBits)) {
      live_.resize(chunks_.size() << kChunkBits, false);
    }
  }

  std::size_t live() const { return live_count_; }
  std::size_t high_water() const { return watermark_; }
  std::size_t capacity() const { return chunks_.size() * kChunkObjs; }

 private:
  struct Slot {
    alignas(T) unsigned char raw[sizeof(T)];
  };

  void* raw(Id id) {
    return chunks_[id >> kChunkBits][id & (kChunkObjs - 1)].raw;
  }
  T* ptr(Id id) { return std::launder(reinterpret_cast<T*>(raw(id))); }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<bool> live_;     // parallel to the id space
  std::vector<Id> free_heap_;  // min-heap (std::greater) of released ids
  Id watermark_ = 0;           // next never-used id
  std::size_t live_count_ = 0;
};

}  // namespace vegas
