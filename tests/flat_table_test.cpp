/// Tests for the two hash tables of the TDD kernel (tdd/flat_table.hpp).
/// tdd::FlatCache, the exact memo: random operation sequences against a
/// std::unordered_map model, every entry findable across many index
/// doublings, insertion-order iteration, release and lazy allocation.
/// tdd::ComputedTable, the lossy op-cache memo: overwrite on collision,
/// growth against a direct-mapped model, live-only iteration, release and
/// the byte cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tdd/flat_table.hpp"

namespace qts::tdd {
namespace {

struct Key {
  std::uint64_t id;
  std::uint32_t tag;
  bool operator==(const Key&) const = default;
};

struct GoodHash {
  std::uint64_t operator()(const Key& k) const { return hash_finish(hash_step(k.id, k.tag)); }
};

/// Every key lands in one of four home slots: long probe runs on purpose.
struct CollidingHash {
  std::uint64_t operator()(const Key& k) const { return k.id & 3; }
};

struct ModelHash {
  std::size_t operator()(const Key& k) const { return GoodHash{}(k); }
};

using Model = std::unordered_map<Key, double, ModelHash>;

template <typename Cache>
void expect_matches_model(const Cache& cache, const Model& model) {
  ASSERT_EQ(cache.size(), model.size());
  ASSERT_EQ(cache.empty(), model.empty());
  std::size_t visited = 0;
  cache.for_each([&](const Key& k, const double& v) {
    ++visited;
    const auto it = model.find(k);
    ASSERT_NE(it, model.end()) << "for_each visited a dead key " << k.id;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, model.size());
  for (const auto& [k, v] : model) {
    const double* found = cache.find(k);
    ASSERT_NE(found, nullptr) << "live key " << k.id << " not found";
    EXPECT_EQ(*found, v);
  }
}

template <typename Hash>
void run_random_model(std::uint64_t seed, std::uint64_t key_space) {
  FlatCache<Key, double, Hash> cache;
  Model model;
  std::mt19937_64 rng(seed);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng() % 1000;
    const Key k{rng() % key_space, static_cast<std::uint32_t>(rng() % 3)};
    if (roll < 700) {
      const auto v = static_cast<double>(step);
      const bool fresh = cache.insert(k, v);
      const bool model_fresh = model.emplace(k, v).second;
      ASSERT_EQ(fresh, model_fresh) << "step " << step;
    } else if (roll < 990) {
      const double* found = cache.find(k);
      const auto it = model.find(k);
      ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
      ASSERT_EQ(cache.contains(k), found != nullptr);
    } else {
      cache.release();
      model.clear();
      EXPECT_EQ(cache.bytes(), 0u);
    }
    if (step % 997 == 0) expect_matches_model(cache, model);
  }
  expect_matches_model(cache, model);
}

TEST(FlatTable, RandomSequencesMatchUnorderedMapModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_random_model<GoodHash>(seed, 3000);
  }
}

TEST(FlatTable, RandomSequencesMatchModelUnderHeavyCollisions) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    run_random_model<CollidingHash>(seed, 400);
  }
}

TEST(FlatTable, NothingAllocatedBeforeFirstInsert) {
  FlatCache<Key, double, GoodHash> cache;
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.find(Key{1, 0}), nullptr);
  cache.release();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_TRUE(cache.insert(Key{1, 0}, 2.0));
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(FlatTable, GrowthKeepsEveryEntryFindable) {
  FlatCache<Key, double, GoodHash> cache;
  constexpr std::size_t kN = 5000;  // the index doubles from 64 to 16,384 slots
  std::size_t last_bytes = 0;
  std::size_t growths = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(cache.insert(Key{i, 0}, static_cast<double>(i)));
    ASSERT_EQ(cache.size(), i + 1);
    if (cache.bytes() == last_bytes) continue;
    ++growths;
    last_bytes = cache.bytes();
    for (std::size_t j = 0; j <= i; ++j) {
      const double* v = cache.find(Key{j, 0});
      ASSERT_NE(v, nullptr) << "growth lost key " << j << " at size " << i + 1;
      ASSERT_EQ(*v, static_cast<double>(j));
    }
  }
  EXPECT_GE(growths, 8u);
  EXPECT_EQ(cache.find(Key{kN, 0}), nullptr);

  // for_each visits each entry once, in insertion order.
  std::size_t next = 0;
  cache.for_each([&](const Key& k, const double& v) {
    EXPECT_EQ(k.id, next);
    EXPECT_EQ(v, static_cast<double>(next));
    ++next;
  });
  EXPECT_EQ(next, kN);
}

TEST(FlatTable, ExistingEntryIsKeptOnReinsert) {
  FlatCache<Key, double, GoodHash> cache;
  EXPECT_TRUE(cache.insert(Key{7, 1}, 1.5));
  EXPECT_FALSE(cache.insert(Key{7, 1}, 2.5));
  EXPECT_EQ(*cache.find(Key{7, 1}), 1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FlatTable, ReleaseGivesBackEverything) {
  FlatCache<Key, double, GoodHash> cache;
  for (std::uint64_t i = 0; i < 10000; ++i) cache.insert(Key{i, 0}, 1.0);
  ASSERT_GT(cache.bytes(), 0u);
  cache.release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(Key{1, 0}), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_TRUE(cache.insert(Key{1, 0}, 4.0));
  EXPECT_EQ(*cache.find(Key{1, 0}), 4.0);
}

TEST(FlatTable, PointerKeysWithEmptyValuesFormASet) {
  struct Seen {};
  std::vector<int> storage(500);
  FlatCache<const int*, Seen> set;
  for (int round = 0; round < 2; ++round) {
    for (const int& x : storage) EXPECT_EQ(set.insert(&x, Seen{}), round == 0);
  }
  EXPECT_EQ(set.size(), storage.size());
  EXPECT_TRUE(set.contains(&storage[123]));
  const int outside = 0;
  EXPECT_FALSE(set.contains(&outside));
}

// -- ComputedTable ------------------------------------------------------------

using Table = ComputedTable<Key, double, GoodHash>;

/// The slot GoodHash sends `k` to in a table of `slots` slots.
std::size_t home(const Key& k, std::size_t slots) { return GoodHash{}(k) & (slots - 1); }

TEST(ComputedTable, CollidingInsertOverwrites) {
  ComputedTable<Key, double, CollidingHash> table;
  EXPECT_EQ(table.bytes(), 0u);
  EXPECT_EQ(table.find(Key{0, 0}), nullptr);
  table.insert(Key{0, 0}, 1.0);
  EXPECT_EQ(table.slots(), Table::kInitialSlots);
  EXPECT_EQ(*table.find(Key{0, 0}), 1.0);
  table.insert(Key{1, 0}, 2.0);  // another home slot: both live
  EXPECT_EQ(table.size(), 2u);
  table.insert(Key{4, 0}, 3.0);  // CollidingHash sends 0 and 4 to one slot
  EXPECT_EQ(table.find(Key{0, 0}), nullptr);
  EXPECT_EQ(*table.find(Key{4, 0}), 3.0);
  EXPECT_EQ(*table.find(Key{1, 0}), 2.0);
  EXPECT_EQ(table.size(), 2u);
  table.insert(Key{4, 0}, 5.0);  // the same key: its value is replaced
  EXPECT_EQ(*table.find(Key{4, 0}), 5.0);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ComputedTable, GrowthKeepsLiveEntriesFindable) {
  // A direct-mapped model: slot -> {key, value}, re-placed whenever the
  // table's slot count changes.  Growth must lose no live entry, and every
  // insert must evict exactly the entry its home slot held.
  Table table;
  std::unordered_map<std::size_t, std::pair<Key, double>> model;
  std::mt19937_64 rng(9);
  std::size_t growths = 0;
  for (int step = 0; growths < 3; ++step) {
    ASSERT_LT(step, 1000000) << "the table stopped growing";
    const Key k{rng() % 100000, 0};
    const std::size_t before = std::max(table.slots(), Table::kInitialSlots);
    table.insert(k, static_cast<double>(step));
    model[home(k, before)] = {k, static_cast<double>(step)};
    if (table.slots() == before) continue;
    ++growths;
    ASSERT_EQ(table.slots(), 2 * before);
    std::unordered_map<std::size_t, std::pair<Key, double>> placed;
    for (const auto& [slot, entry] : model) {
      ASSERT_TRUE(placed.emplace(home(entry.first, table.slots()), entry).second);
    }
    model = std::move(placed);
    ASSERT_EQ(table.size(), model.size());
    for (const auto& [slot, entry] : model) {
      const double* v = table.find(entry.first);
      ASSERT_NE(v, nullptr) << "growth lost key " << entry.first.id;
      ASSERT_EQ(*v, entry.second);
    }
  }
  EXPECT_EQ(table.slots(), 8 * Table::kInitialSlots);

  // A working set that fits stops the churn, and with it the growth.
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) table.insert(Key{i, 7}, 1.0);
  }
  EXPECT_EQ(table.slots(), 8 * Table::kInitialSlots);
}

TEST(ComputedTable, ForEachVisitsLiveSlotsOnly) {
  ComputedTable<Key, double, CollidingHash> table;
  for (std::uint64_t i = 0; i < 4; ++i) table.insert(Key{i, 0}, 1.0);
  table.release();
  EXPECT_EQ(table.bytes(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(Key{0, 0}), nullptr);
  table.insert(Key{0, 1}, 2.0);
  table.insert(Key{1, 1}, 3.0);
  table.insert(Key{5, 1}, 4.0);  // evicts {1, 1}
  std::vector<std::uint64_t> seen;
  table.for_each([&](const Key& k, const double& v) {
    EXPECT_EQ(k.tag, 1u);
    seen.push_back(k.id);
    EXPECT_EQ(*table.find(k), v);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(table.size(), 2u);
}

TEST(ComputedTable, BytesNeverExceedTheCap) {
  Table table;
  std::size_t most = 0;
  for (std::uint64_t i = 0; i < 8 * Table::kMaxSlots; ++i) {
    table.insert(Key{i, 0}, 1.0);
    most = std::max(most, table.bytes());
    ASSERT_LE(table.size(), table.slots());
  }
  EXPECT_EQ(table.slots(), Table::kMaxSlots);
  EXPECT_LE(most, Table::kMaxBytes);
  EXPECT_EQ(table.bytes(), Table::kMaxBytes);
}

}  // namespace
}  // namespace qts::tdd
