// Open-addressing hash table for the library's hot integer-keyed lookups:
// the §IV-b repair indexes and hop memo, IXP edge assignment and the AS
// graph's ASN index.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace spooftrack::util {

/// Map from an unsigned integer key to a trivially copyable value. Linear
/// probing over a power-of-two slot array that is kept at most half full.
/// clear() is O(1) and keeps the capacity: each slot records the stamp of
/// the generation that wrote it, and only slots of the current generation
/// are live. The stamp is 64-bit, so it never wraps.
template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>);
  static_assert(std::is_trivially_copyable_v<Value>);

 public:
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// The value stored under `key`, nullptr when there is none. Valid until
  /// the next try_emplace() or clear().
  const Value* find(Key key) const noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.stamp != stamp_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }
  Value* find(Key key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Stores `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted; an existing value is left
  /// as it was. The pointer is valid until the next try_emplace() or
  /// clear().
  std::pair<Value*, bool> try_emplace(Key key, const Value& value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = Slot{key, value, stamp_};
        ++size_;
        return {&slot.value, true};
      }
      if (slot.key == key) return {&slot.value, false};
    }
  }

  /// Drops every entry; the capacity stays.
  void clear() noexcept {
    ++stamp_;
    size_ = 0;
  }

 private:
  struct Slot {
    Key key;
    Value value;
    std::uint64_t stamp;  // live while equal to the map's stamp_
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi, which spread
  // sequential and strided keys (ASNs, router addresses, packed pairs)
  // evenly over the slots.
  std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity, Slot{}));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.stamp != stamp_) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].stamp == stamp_) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  // capacity - 1
  int shift_ = 64;        // 64 - log2(capacity); unused while empty
  std::size_t size_ = 0;
  std::uint64_t stamp_ = 1;  // fresh slots carry stamp 0: free
};

}  // namespace spooftrack::util
