// A FIFO queue over one power-of-two array: push at the back, pop at the
// front, index from the front. It doubles when full and never shrinks, so
// once it has grown to a queue's high-water mark, pushes and pops cost no
// allocation (a std::deque allocates a chunk every few hundred bytes of
// traffic).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace p4ce {

template <class T>
class Ring {
 public:
  Ring() = default;
  Ring(Ring&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {
    other.slots_.clear();
  }
  Ring& operator=(Ring&& other) noexcept {
    slots_ = std::move(other.slots_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    other.slots_.clear();
    return *this;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The i-th element from the front. References stay valid until the next
  /// push (which may grow the array) or the element's pop.
  T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  T& front() noexcept { return (*this)[0]; }
  T& back() noexcept { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Append a default-valued element and return it, to be filled in place.
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    return slots_[(head_ + size_++) & (slots_.size() - 1)];
  }

  /// Drop the front element; its slot is reset so it holds no resources.
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// Remove the i-th element, closing the gap from the back.
  void erase(std::size_t i) {
    assert(i < size_);
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    (*this)[size_ - 1] = T{};
    --size_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace p4ce
