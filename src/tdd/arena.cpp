#include "tdd/arena.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace qts::tdd {

std::uint32_t NodeArena::first_id_of(std::size_t ordinal) {
  if (ordinal >= kMaxBlocks) {
    throw ResourceExhausted(Resource::kMemory,
                            "TDD node arena: 32-bit node ids exhausted after " +
                                std::to_string(kMaxBlocks) + " blocks");
  }
  return static_cast<std::uint32_t>(ordinal * kBlockNodes);
}

NodeArena::Block* NodeArena::acquire_block() {
  const MutexLock lock(mutex_);
  const std::uint32_t first_id = first_id_of(blocks_.size());
  blocks_.push_back(std::make_unique<Block>());
  blocks_.back()->first_id = first_id;
  return blocks_.back().get();
}

std::size_t NodeArena::refill(std::vector<Node*>& out, std::size_t want) {
  const MutexLock lock(mutex_);
  const std::size_t take = std::min(want, free_.size());
  out.insert(out.end(), free_.end() - static_cast<std::ptrdiff_t>(take), free_.end());
  free_.resize(free_.size() - take);
  return take;
}

void NodeArena::recycle(std::vector<Node*>&& batch) {
  const MutexLock lock(mutex_);
  free_.insert(free_.end(), batch.begin(), batch.end());
  batch.clear();
}

std::size_t NodeArena::blocks() const {
  const MutexLock lock(mutex_);
  return blocks_.size();
}

std::size_t NodeArena::free_pool() const {
  const MutexLock lock(mutex_);
  return free_.size();
}

}  // namespace qts::tdd
