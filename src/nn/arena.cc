#include "nn/arena.h"

namespace serd::nn {

TensorPtr TensorArena::Scratch(size_t rows, size_t cols) {
  if (cursor_ == pool_.size()) {
    pool_.push_back(MakeTensor(rows, cols));
    return pool_[cursor_++];
  }
  TensorPtr& slot = pool_[cursor_];
  if (slot.use_count() > 1) {
    // The tensor escaped a previous scope (e.g. the encoder memory held
    // across decode steps): leave it with its owner and pool a fresh one.
    slot = MakeTensor(rows, cols);
  } else {
    slot->Recycle(rows, cols);
  }
  return pool_[cursor_++];
}

TensorPtr TensorArena::Allocate(size_t rows, size_t cols) {
  TensorPtr t = Scratch(rows, cols);
  t->EnsureGrad();
  return t;
}

}  // namespace serd::nn
