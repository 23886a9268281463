#ifndef SERD_NN_ARENA_H_
#define SERD_NN_ARENA_H_

#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace serd::nn {

/// Bump-style tensor arena for the per-example forward/backward loops.
///
/// A tape step allocates the same sequence of intermediate tensors every
/// iteration; without an arena each op pays two heap allocations (value +
/// grad vector) that die with the tape. The arena keeps every tensor it
/// has handed out and a cursor: Allocate() returns the next pooled tensor
/// (reshaped, capacity retained) and Reset() just rewinds the cursor, so
/// after the first step a forward/backward pass performs no heap
/// allocation at all in steady state.
///
/// Zeroing rule: grad buffers are always handed out zeroed (backward
/// accumulates into them with +=), value buffers never are. Every tape op
/// overwrites its whole result, so zeroing values would be wasted work; a
/// recycled tensor's value holds stale data from an earlier shape, and
/// any caller that allocates directly must write every element.
///
/// Lifetime rules (see DESIGN.md "Kernel layer"):
///  - Reset() may only be called when the tape that allocated from the
///    arena has been dropped (tensors are reclaimed lazily: a pooled
///    tensor still referenced outside the arena at reuse time is left to
///    its owner and replaced by a fresh one, so escaping a tensor from a
///    step is safe, merely unpooled).
///  - One arena per thread of execution: the arena has no locking. The
///    trainer gives each model replica its own arena; single-threaded
///    decode/scoring loops use a thread_local instance.
class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Returns a rows x cols tensor with a zeroed grad buffer and an
  /// unspecified value buffer (see the zeroing rule above).
  TensorPtr Allocate(size_t rows, size_t cols);

  /// Like Allocate but without a grad buffer: forward-pass caches an op
  /// keeps for its own backward (LayerNorm's normalized rows, GELU's
  /// tanh, dropout masks) never receive gradient.
  TensorPtr Scratch(size_t rows, size_t cols);

  /// Rewinds the arena; every pooled tensor becomes reusable.
  void Reset() { cursor_ = 0; }

  /// Drops the pool entirely (frees memory).
  void Release() {
    pool_.clear();
    cursor_ = 0;
  }

  size_t pooled() const { return pool_.size(); }
  size_t cursor() const { return cursor_; }

 private:
  std::vector<TensorPtr> pool_;
  size_t cursor_ = 0;
};

}  // namespace serd::nn

#endif  // SERD_NN_ARENA_H_
