#include "online/basis_projection.h"

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace savg {

namespace {

/// Flat open-addressing (linear probing) table from a key to the position
/// of its first occurrence, sized to at most half full. Claim() matches a
/// key at most once, like erasing it from a map: later lookups of a
/// claimed key miss.
class KeyIndex {
 public:
  explicit KeyIndex(const std::vector<uint64_t>& keys) {
    size_t capacity = 16;
    while (capacity < 2 * keys.size()) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, Slot{});
    for (size_t i = 0; i < keys.size(); ++i) {
      Slot& slot = Find(keys[i]);
      if (slot.index >= 0) continue;  // the first occurrence wins
      slot = {keys[i], static_cast<int>(i), false};
      ++distinct_;
    }
  }

  /// Position of `key`'s first occurrence, or -1 when it is absent or
  /// already claimed.
  int Claim(uint64_t key) {
    Slot& slot = Find(key);
    if (slot.index < 0 || slot.claimed) return -1;
    slot.claimed = true;
    ++claimed_;
    return slot.index;
  }

  /// Distinct keys never claimed.
  int unclaimed() const { return distinct_ - claimed_; }

 private:
  struct Slot {
    uint64_t key = 0;
    int index = -1;  ///< -1: empty
    bool claimed = false;
  };

  /// The slot holding `key`, or the empty slot that ends its probe run.
  Slot& Find(uint64_t key) {
    // The packed keys vary mostly in their low and middle bits, so they
    // are mixed before masking.
    uint64_t state = key;
    for (size_t at = SplitMix64(&state) & mask_;; at = (at + 1) & mask_) {
      Slot& slot = slots_[at];
      if (slot.index < 0 || slot.key == key) return slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int distinct_ = 0;
  int claimed_ = 0;
};

}  // namespace

LpBasis ProjectCompactBasis(const LpBasis& old_basis,
                            const CompactLpKeys& old_keys,
                            const CompactLpKeys& new_keys,
                            BasisProjectionDelta* delta) {
  BasisProjectionDelta d;
  LpBasis projected;
  projected.structural.assign(new_keys.cols.size(),
                              VarBasisStatus::kNonbasicLower);
  projected.logical.assign(new_keys.rows.size(), VarBasisStatus::kBasic);

  KeyIndex old_cols(old_keys.cols);
  for (size_t j = 0; j < new_keys.cols.size(); ++j) {
    const int old = old_cols.Claim(new_keys.cols[j]);
    if (old < 0) {
      ++d.new_cols;
      continue;
    }
    projected.structural[j] = old_basis.structural[old];
    ++d.surviving_cols;
  }
  d.dropped_cols = old_cols.unclaimed();

  KeyIndex old_rows(old_keys.rows);
  for (size_t i = 0; i < new_keys.rows.size(); ++i) {
    const int old = old_rows.Claim(new_keys.rows[i]);
    if (old < 0) {
      ++d.new_rows;
      continue;
    }
    projected.logical[i] = old_basis.logical[old];
  }
  d.dropped_rows = old_rows.unclaimed();

  if (delta != nullptr) *delta = d;
  return projected;
}

}  // namespace savg
