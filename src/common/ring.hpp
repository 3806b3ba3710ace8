// Fixed-capacity FIFO ring for the pipeline's per-thread queues (fetch
// queue, LSQ, rename buffers).
//
// Each of those queues has a hard capacity set by the machine
// configuration and is pushed, popped and walked every cycle.  A
// std::deque pays a two-level index on every access and allocates as it
// grows; here storage is allocated once and every access is a masked index.
// Only the slot array rounds up to a power of two: capacity() is exactly
// the configured size, so full() -- and every statistic derived from it --
// behaves as before.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.hpp"

namespace msim {

template <typename T>
class Ring {
 public:
  using value_type = T;

  explicit Ring(std::uint32_t capacity)
      : slots_(std::bit_ceil(capacity)),
        capacity_(capacity),
        mask_(static_cast<std::uint32_t>(slots_.size()) - 1) {
    MSIM_CHECK(capacity_ >= 1);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Element `i` in FIFO order: 0 is the front (oldest).
  [[nodiscard]] T& operator[](std::uint32_t i) noexcept {
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const noexcept {
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    MSIM_CHECK(size_ < capacity_);
    slots_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  void pop_front() noexcept {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void pop_back() noexcept { --size_; }
  /// Removes element `i` by shifting the run [0, i) in front of it back one
  /// slot: the survivors keep their order, and removing near the front --
  /// where out-of-order dispatch takes from -- moves only a few elements.
  void erase_at(std::uint32_t i) noexcept {
    for (; i > 0; --i) (*this)[i] = (*this)[i - 1];
    pop_front();
  }
  void clear() noexcept { head_ = size_ = 0; }

  /// Read-only iteration, oldest first.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Ring* ring, std::uint32_t i) : ring_(ring), i_(i) {}
    reference operator*() const noexcept { return (*ring_)[i_]; }
    pointer operator->() const noexcept { return &(*ring_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& other) const noexcept { return i_ == other.i_; }

   private:
    const Ring* ring_ = nullptr;
    std::uint32_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

 private:
  std::vector<T> slots_;
  std::uint32_t capacity_;
  std::uint32_t mask_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace msim
