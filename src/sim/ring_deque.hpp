#pragma once
/// \file ring_deque.hpp
/// Grow-only circular FIFO with random access from the front.
///
/// `std::deque` allocates and frees a block every few elements as the FIFO
/// window slides, so steady-state push/pop traffic — MAC interface queues,
/// the channel's interference history — keeps touching the allocator even
/// when the queue depth is stable. RingDeque backs the same interface with
/// one power-of-two ring that doubles on overflow and never shrinks: after
/// the first few seconds of simulation the structure reaches its working
/// size and every later push/pop is pointer arithmetic only. The first
/// push allocates a single slot, so a queue that never holds more than one
/// element (an idle node's MAC queue, one hello at a time) costs one block
/// the size of its element. Elements are constructed on push and destroyed
/// on pop (destructors run exactly as with std::deque), so held resources —
/// payload arena references in particular — are released with the same
/// timing the deque gave them.

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace glr::sim {

template <class T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;

  ~RingDeque() {
    clear();
    if (slots_ != nullptr) {
      ::operator delete(slots_, capacity_ * sizeof(T), kAlign);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Element `i` counted from the front (0 == oldest).
  [[nodiscard]] T& operator[](std::size_t i) { return *slot(head_ + i); }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return *slot(head_ + i);
  }

  [[nodiscard]] T& front() { return *slot(head_); }
  [[nodiscard]] const T& front() const { return *slot(head_); }
  [[nodiscard]] T& back() { return *slot(head_ + size_ - 1); }
  [[nodiscard]] const T& back() const { return *slot(head_ + size_ - 1); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow();
    T* p = slot(head_ + size_);
    std::construct_at(p, std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_front() {
    std::destroy_at(slot(head_));
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

 private:
  static constexpr std::align_val_t kAlign{alignof(T)};

  [[nodiscard]] T* slot(std::size_t logical) const {
    return slots_ + (logical & (capacity_ - 1));
  }

  void grow() {
    const std::size_t newCap = capacity_ == 0 ? 1 : capacity_ * 2;
    T* fresh =
        static_cast<T*>(::operator new(newCap * sizeof(T), kAlign));
    for (std::size_t i = 0; i < size_; ++i) {
      T* old = slot(head_ + i);
      std::construct_at(fresh + i, std::move(*old));
      std::destroy_at(old);
    }
    if (slots_ != nullptr) {
      ::operator delete(slots_, capacity_ * sizeof(T), kAlign);
    }
    slots_ = fresh;
    capacity_ = newCap;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // always a power of two (or 0)
  std::size_t head_ = 0;      // physical index of the front element
  std::size_t size_ = 0;
};

}  // namespace glr::sim
