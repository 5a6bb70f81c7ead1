#include "tdd/unique_table.hpp"

namespace qts::tdd {

void UniqueTable::ShardTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.node == nullptr) continue;
    std::size_t i = (s.hash >> kShardBits) & mask;
    while (slots_[i].node != nullptr) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

std::uint64_t UniqueTable::ShardTable::erase(const Node* node) {
  // Rebuild without the entry: linear probing cannot simply blank a slot,
  // and this serves only the auditor's corruption hooks.
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size(), Slot{});
  count_ = 0;
  std::uint64_t hash = 0;
  for (const Slot& s : old) {
    if (s.node == nullptr) continue;
    if (s.node == node) {
      hash = s.hash;
    } else {
      place(s.hash, s.node);
    }
  }
  return hash;
}

void UniqueTable::clear() {
  for (auto& shard : shards_) {
    const SpinGuard guard(shard.lock);
    shard.table.clear();
  }
}

void UniqueTable::rebuild_insert(Node* node) {
  const NodeKey key = NodeKey::of(*node);
  const std::uint64_t hash = NodeKeyHash{}(key);
  Shard& shard = shards_[shard_of(hash)];
  const SpinGuard guard(shard.lock);
  shard.table.insert(key, hash, node);
}

UniqueTable::Stats UniqueTable::stats() {
  Stats s;
  for (auto& shard : shards_) {
    const SpinGuard guard(shard.lock);
    s.nodes += shard.table.size();
    s.slots += shard.table.capacity();
  }
  if (s.slots > 0) s.load_factor = static_cast<double>(s.nodes) / static_cast<double>(s.slots);
  return s;
}

}  // namespace qts::tdd
