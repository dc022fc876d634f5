#pragma once
/// \file payload.hpp
/// Slab-recycled, reference-counted packet payloads.
///
/// Packets used to carry their protocol struct in a `std::any`, which heap-
/// allocates on every assignment and deep-copies on every Packet copy — and
/// the MAC copies each packet once per transmission attempt (queue entry ->
/// on-air frame), so a single hello beacon with a neighbor vector cost
/// several allocations before it ever reached a receiver. `Payload` replaces
/// this with an intrusively reference-counted block from a per-type,
/// per-thread free-list arena (the PR-2 slab idiom): creating a payload pops
/// a recycled block, copying a Packet bumps a refcount, and the last release
/// pushes the block back — with its value still constructed, so contained
/// buffers (e.g. SummaryVector::ids) keep their capacity across reuse.
/// Steady-state packet traffic therefore performs no heap allocations at
/// all; test_hotpath.cpp pins this under a counting allocator.
///
/// A value that refers to state shared beyond its packet gives its type a
/// `void onRecycle()` member, which the release runs before parking the
/// block. HelloPayload is the one such type: its neighbor list is a block
/// of the sender's list pool (net/neighbor.hpp), shared with every
/// receiver's record, not part of the arena block, and a parked hello must
/// not keep that list alive.
///
/// Contract: payloads are *immutable once shared*. Build the value through
/// `mutableValue()` while the handle is still unique, then hand it to a
/// Packet; receivers read through `get<T>()`. Because `create<T>()` may
/// return a recycled block, the value holds stale content from a previous
/// use — builders must overwrite every field (assign the whole struct, or
/// clear() + refill containers; clearing is what preserves capacity).
///
/// Threading: the arenas are thread_local and refcounts are plain integers.
/// A payload must be created, shared and released on one thread — which is
/// exactly the sweep engine's execution model (each scenario runs entirely
/// on one worker; nothing crosses threads but finished ScenarioResults).

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace glr::net {

class Payload {
 public:
  Payload() noexcept = default;

  Payload(const Payload& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++header().refs;
  }

  Payload(Payload&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }

  Payload& operator=(const Payload& other) noexcept {
    Payload tmp{other};
    std::swap(block_, tmp.block_);
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }

  ~Payload() { reset(); }

  /// A fresh (possibly recycled — see file comment) handle holding a
  /// default-constructed-or-stale T with refcount 1.
  template <class T>
  [[nodiscard]] static Payload create() {
    Arena<T>& arena = arenaFor<T>();
    Block<T>* b = arena.freeHead;
    if (b != nullptr) {
      arena.freeHead = b->nextFree;
    } else {
      arena.all.push_back(std::make_unique<Block<T>>());
      b = arena.all.back().get();
    }
    b->header.refs = 1;
    Payload p;
    p.block_ = b;
    return p;
  }

  /// Convenience: create<T>() + overwrite the (stale) value by assignment.
  template <class T>
  [[nodiscard]] static Payload of(const T& value) {
    Payload p = create<T>();
    p.mutableValue<T>() = value;
    return p;
  }

  /// The contained T, or nullptr if empty or a different type is held.
  template <class T>
  [[nodiscard]] const T* get() const {
    if (block_ == nullptr || header().tag != tagFor<T>()) return nullptr;
    return &static_cast<const Block<T>*>(block_)->value;
  }

  /// Mutable access for the builder. Only legal while the handle is unique
  /// (refs == 1) and holds a T — mutating a shared payload would corrupt a
  /// frame another receiver reads. Both preconditions are asserted (Debug
  /// builds; free in Release).
  template <class T>
  [[nodiscard]] T& mutableValue() {
    const T* v = get<T>();
    assert(v != nullptr && "Payload::mutableValue: empty or wrong type");
    assert(header().refs == 1 && "Payload::mutableValue: handle not unique");
    return const_cast<T&>(*v);
  }

  [[nodiscard]] bool empty() const { return block_ == nullptr; }
  explicit operator bool() const { return block_ != nullptr; }

  void reset() noexcept {
    if (block_ != nullptr && --header().refs == 0) {
      header().recycle(block_);
    }
    block_ = nullptr;
  }

 private:
  struct Header {
    const void* tag = nullptr;         // identity: &kTag<T>
    void (*recycle)(void*) = nullptr;  // push block back to its arena
    std::uint32_t refs = 0;
  };

  template <class T>
  struct Block {
    Header header;  // must stay the first member (see Payload::header())
    Block<T>* nextFree = nullptr;
    T value{};

    Block() {
      header.tag = tagFor<T>();
      header.recycle = &Block::recycleSelf;
    }

    static void recycleSelf(void* block) {
      auto* b = static_cast<Block*>(block);
      // The value stays constructed (containers keep capacity); the block
      // just rejoins its creating thread's free list, after dropping
      // whatever it shares (see file comment).
      if constexpr (requires { b->value.onRecycle(); }) b->value.onRecycle();
      Arena<T>& arena = arenaFor<T>();
      b->nextFree = arena.freeHead;
      arena.freeHead = b;
    }
  };

  /// Header is the first member of every Block<T>, so the type-erased block
  /// pointer is pointer-interconvertible with it.
  [[nodiscard]] Header& header() const { return *static_cast<Header*>(block_); }

  /// Per-type, per-thread block store. Owns every block it ever handed out;
  /// thread exit (after all payloads are released — see file comment) frees
  /// them through the unique_ptrs.
  template <class T>
  struct Arena {
    Block<T>* freeHead = nullptr;
    std::vector<std::unique_ptr<Block<T>>> all;
  };

  template <class T>
  static Arena<T>& arenaFor() {
    static thread_local Arena<T> arena;
    return arena;
  }

  template <class T>
  static const void* tagFor() {
    static const char kTag = 0;
    return &kTag;
  }

  void* block_ = nullptr;  // Block<T> for whatever T this payload holds
};

}  // namespace glr::net
