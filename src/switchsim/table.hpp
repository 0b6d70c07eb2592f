// Exact-match match-action tables: the P4 construct the control plane
// programs (via BfRt in the real system) and the data plane matches against
// at line rate. Entries are bounded like hardware tables.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.hpp"
#include "common/types.hpp"

namespace p4ce::sw {

template <typename Key, typename Action>
class ExactMatchTable {
 public:
  explicit ExactMatchTable(std::string name, std::size_t capacity = 65536)
      : name_(std::move(name)), capacity_(capacity) {}

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  // --- Control-plane API --------------------------------------------------

  Status add(const Key& key, Action action) {
    if (entries_.contains(key)) {
      return error(StatusCode::kAlreadyExists, "duplicate key in table " + name_);
    }
    if (entries_.size() >= capacity_) {
      return error(StatusCode::kResourceExhausted, "table " + name_ + " full");
    }
    entries_.emplace(key, std::move(action));
    return Status::ok();
  }

  /// Insert or overwrite.
  void set(const Key& key, Action action) { entries_[key] = std::move(action); }

  Status remove(const Key& key) {
    return entries_.erase(key) ? Status::ok()
                               : error(StatusCode::kNotFound, "no such key in " + name_);
  }

  void clear() { entries_.clear(); }

  // --- Data-plane API -------------------------------------------------------

  /// Match: returns the action on hit, nullptr on miss.
  const Action* lookup(const Key& key) const noexcept {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  std::string name_;
  std::size_t capacity_;
  std::unordered_map<Key, Action> entries_;
};

}  // namespace p4ce::sw
