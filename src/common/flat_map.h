#ifndef EDGELET_COMMON_FLAT_MAP_H_
#define EDGELET_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace edgelet {

// Open-addressing uint64 -> V hash map: two flat arrays with linear
// probing, values stored inline. Replaces unordered_map / std::set on hot
// lookup paths, where every probe chased a heap node: here a lookup is a
// hash, a mask and (usually) one cache line, and once the table has grown
// to the working-set size insert/erase never allocate.
//
// Users: the parallel engine's per-shard remote-event index, the
// enclave's pairwise-key slots (V = a 32-byte key) and the snapshot
// builder's contributor dedup (FlatSet64 below).
//
// Key 0 marks an empty slot in the arrays, but it is still a legal key:
// it lives in a dedicated out-of-line slot, so callers need no sentinel
// reasoning. Erase uses backward-shift deletion instead of tombstones: the
// table never degrades under cyclic insert/erase traffic. Iteration order
// (ForEach) is unspecified; callers that serialize must sort.
template <typename V>
class FlatMap64 {
 public:
  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  // Drops every entry but keeps the arrays' capacity.
  void Clear() {
    if (size_ > 0) {
      for (auto& k : keys_) k = 0;
      size_ = 0;
    }
    has_zero_ = false;
  }

  // The value stored under `key`, or nullptr. Valid until the next
  // insertion (which may rehash).
  const V* Find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_val_ : nullptr;
    if (keys_.empty()) return nullptr;
    size_t i = Hash(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  V* Find(uint64_t key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  // Inserts `value` under `key` unless the key is present. Returns the
  // stored value and whether it was inserted.
  std::pair<V*, bool> TryInsert(uint64_t key, const V& value) {
    if (key == 0) {
      if (has_zero_) return {&zero_val_, false};
      has_zero_ = true;
      zero_val_ = value;
      return {&zero_val_, true};
    }
    if ((size_ + 1) * 8 > keys_.size() * 7) {  // load factor under 7/8
      Rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2);
    }
    size_t i = Hash(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    return {&vals_[i], true};
  }

  // Inserts or overwrites.
  void Insert(uint64_t key, const V& value) {
    auto [slot, inserted] = TryInsert(key, value);
    if (!inserted) *slot = value;
  }

  // Removes `key`; stores its value first when found. Backward-shift
  // deletion: entries displaced past the hole by linear probing slide back
  // so every remaining entry stays reachable from its home slot.
  bool Erase(uint64_t key, V* value_out = nullptr) {
    if (key == 0) {
      if (!has_zero_) return false;
      if (value_out != nullptr) *value_out = zero_val_;
      has_zero_ = false;
      return true;
    }
    if (keys_.empty()) return false;
    size_t i = Hash(key) & mask_;
    while (keys_[i] != key) {
      if (keys_[i] == 0) return false;
      i = (i + 1) & mask_;
    }
    if (value_out != nullptr) *value_out = vals_[i];
    size_t hole = i;
    for (;;) {
      size_t j = (hole + 1) & mask_;
      while (keys_[j] != 0) {
        size_t home = Hash(keys_[j]) & mask_;
        // j's entry may fill the hole only if its home slot does not lie
        // cyclically in (hole, j] — otherwise moving it would strand it
        // before its probe start.
        bool home_between = (hole < j) ? (hole < home && home <= j)
                                       : (hole < home || home <= j);
        if (!home_between) break;
        j = (j + 1) & mask_;
      }
      if (keys_[j] == 0) break;
      keys_[hole] = keys_[j];
      vals_[hole] = vals_[j];
      hole = j;
    }
    keys_[hole] = 0;
    --size_;
    return true;
  }

  // Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(uint64_t{0}, zero_val_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

 private:
  // Small first allocation: most tables (an enclave's key slots, a
  // builder's dedup set) hold a handful of keys, and there is one per
  // device and query.
  static constexpr size_t kMinCapacity = 4;

  // SplitMix64 finalizer: full-avalanche mix so structured keys (shard
  // bits in remote handles, sequential device ids) do not cluster probes.
  static uint64_t Hash(uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != 0) TryInsert(old_keys[i], old_vals[i]);
    }
  }

  std::vector<uint64_t> keys_;  // 0 = empty slot
  std::vector<V> vals_;
  size_t mask_ = 0;
  size_t size_ = 0;  // entries in the arrays (key 0 not counted)
  bool has_zero_ = false;
  V zero_val_{};
};

// Set of uint64 keys on the same table (key 0 included).
class FlatSet64 {
 public:
  // Returns whether `key` was newly inserted.
  bool Insert(uint64_t key) { return map_.TryInsert(key, Unit{}).second; }
  bool Contains(uint64_t key) const { return map_.Find(key) != nullptr; }
  size_t size() const { return map_.size(); }
  void Clear() { map_.Clear(); }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](uint64_t key, const Unit&) { fn(key); });
  }

 private:
  struct Unit {};
  FlatMap64<Unit> map_;
};

}  // namespace edgelet

#endif  // EDGELET_COMMON_FLAT_MAP_H_
