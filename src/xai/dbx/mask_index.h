#ifndef XAI_DBX_MASK_INDEX_H_
#define XAI_DBX_MASK_INDEX_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace xai {

/// \brief Numbers distinct coalition masks in first-insertion order.
///
/// An open-addressing table with linear probing, kept at most half full.
/// ~0 marks an empty slot, so ~0 itself cannot be interned; coalition
/// masks of at most 63 players never have bit 63 set. The tuple-Shapley
/// sampler interns every permutation visit with it, and the shared scan
/// interns its row-set keys.
class MaskIndex {
 public:
  /// The number of `mask` (mask != ~0): its position among the distinct
  /// masks interned so far, which is size() for a new one.
  uint32_t Intern(uint64_t mask) {
    if (2 * (masks_.size() + 1) > slots_.size()) Grow();
    for (size_t s = Slot(mask);; s = (s + 1) & (slots_.size() - 1)) {
      if (slots_[s] == mask) return ids_[s];
      if (slots_[s] == kEmpty) {
        slots_[s] = mask;
        ids_[s] = static_cast<uint32_t>(masks_.size());
        masks_.push_back(mask);
        return ids_[s];
      }
    }
  }

  /// The interned masks, by number.
  const std::vector<uint64_t>& masks() const { return masks_; }
  size_t size() const { return masks_.size(); }

  /// Forgets every mask but keeps the table's storage.
  void Clear() {
    masks_.clear();
    slots_.assign(slots_.size(), kEmpty);
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  // Fibonacci hashing: the top bits of the product index the table.
  size_t Slot(uint64_t mask) const {
    return static_cast<size_t>((mask * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, kEmpty);
    ids_.resize(capacity);
    for (uint32_t id = 0; id < masks_.size(); ++id) {
      size_t s = Slot(masks_[id]);
      while (slots_[s] != kEmpty) s = (s + 1) & (capacity - 1);
      slots_[s] = masks_[id];
      ids_[s] = id;
    }
  }

  std::vector<uint64_t> slots_;
  std::vector<uint32_t> ids_;
  std::vector<uint64_t> masks_;
  int shift_ = 64;
};

}  // namespace xai

#endif  // XAI_DBX_MASK_INDEX_H_
