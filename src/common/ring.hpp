// A FIFO queue over one power-of-two array: push at the back, pop at the
// front, index from the front. It doubles when full, and pop_front(),
// erase() and clear() halve it when it is at most a quarter full and larger
// than kFloorSlots. A queue that settles at some depth therefore costs no
// allocation per push or pop (a std::deque allocates a chunk every few
// hundred bytes of traffic), while a burst's memory is given back once the
// burst drains. The quarter mark leaves a half-full array after a halving,
// so a queue that hovers at a boundary does not resize on every call.
//
// Growing and shrinking move the elements: a reference is valid only until
// the next push, pop or erase.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace p4ce {

template <class T>
class Ring {
 public:
  /// Below this many slots the array is never halved.
  static constexpr std::size_t kFloorSlots = 1024;

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
  /// Slots allocated now.
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// The i-th element from the front.
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
    if (size_ == slots_.size()) resize(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Append a default-valued element and return it, to be filled in place.
  T& emplace_back() {
    if (size_ == slots_.size()) resize(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    return slots_[(head_ + size_++) & (slots_.size() - 1)];
  }

  /// Drop the front element; its slot is reset so it holds no resources.
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    shrink_if_sparse();
  }

  /// Remove the i-th element, closing the gap from the back.
  void erase(std::size_t i) {
    assert(i < size_);
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    (*this)[size_ - 1] = T{};
    --size_;
    shrink_if_sparse();
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  void shrink_if_sparse() {
    if (slots_.size() > kFloorSlots && size_ <= slots_.size() / 4) resize(slots_.size() / 2);
  }

  /// Move the elements, front first, into a fresh array of `capacity` slots.
  void resize(std::size_t capacity) {
    std::vector<T> fresh(capacity);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = std::move((*this)[i]);
    slots_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace p4ce
