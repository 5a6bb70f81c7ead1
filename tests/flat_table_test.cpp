/// Tests for the two hash tables of the TDD kernel (tdd/flat_table.hpp).
/// tdd::FlatCache, the exact memo: random operation sequences against a
/// std::unordered_map model, growth across index and chunk boundaries,
/// entry-address stability, O(1) clear through generations (including the
/// 2^32 wraparound, via the test seam), release, lazy allocation and move.
/// tdd::ComputedTable, the lossy op-cache memo: overwrite on collision,
/// growth against a direct-mapped model, O(1) clear (wraparound included),
/// live-only iteration and the byte cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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
    } else if (roll < 996) {
      cache.clear();
      model.clear();
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
  cache.clear();
  cache.release();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.chunks(), 0u);
  EXPECT_EQ(cache.index_slots(), 0u);
  EXPECT_TRUE(cache.insert(Key{1, 0}, 2.0));
  EXPECT_EQ(cache.chunks(), 1u);
  EXPECT_GT(cache.index_slots(), 0u);
}

TEST(FlatTable, GrowthAcrossIndexAndChunkBoundariesKeepsEntriesInPlace) {
  using Cache = FlatCache<Key, double, GoodHash>;
  Cache cache;
  constexpr std::size_t kN = 5 * Cache::kChunkEntries + 17;
  ASSERT_TRUE(cache.insert(Key{0, 0}, -1.0));
  const double* first = cache.find(Key{0, 0});
  std::size_t last_index = cache.index_slots();
  std::size_t index_growths = 0;
  for (std::size_t i = 1; i < kN; ++i) {
    ASSERT_TRUE(cache.insert(Key{i, 0}, static_cast<double>(i)));
    ASSERT_EQ(cache.size(), i + 1);
    ASSERT_EQ(cache.chunks(), (i + Cache::kChunkEntries) / Cache::kChunkEntries);
    ASSERT_LE(2 * cache.size(), cache.index_slots()) << "load above 1/2";
    if (cache.index_slots() != last_index) {
      ++index_growths;
      last_index = cache.index_slots();
      // Growth re-indexes; it never moves an entry.
      ASSERT_EQ(cache.find(Key{0, 0}), first);
      for (std::size_t j = 0; j <= i; ++j) {
        const double* v = cache.find(Key{j, 0});
        ASSERT_NE(v, nullptr) << j;
        ASSERT_EQ(*v, j == 0 ? -1.0 : static_cast<double>(j));
      }
    }
  }
  EXPECT_GE(index_growths, 6u);
  EXPECT_EQ(cache.find(Key{0, 0}), first);
  EXPECT_EQ(cache.find(Key{kN, 0}), nullptr);

  // for_each visits each live entry once, in insertion order.
  std::size_t next = 0;
  cache.for_each([&](const Key& k, const double&) { EXPECT_EQ(k.id, next++); });
  EXPECT_EQ(next, kN);
}

TEST(FlatTable, ExistingEntryIsKeptOnReinsert) {
  FlatCache<Key, double, GoodHash> cache;
  EXPECT_TRUE(cache.insert(Key{7, 1}, 1.5));
  EXPECT_FALSE(cache.insert(Key{7, 1}, 2.5));
  EXPECT_EQ(*cache.find(Key{7, 1}), 1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FlatTable, ClearForgetsEverythingAndKeepsStorage) {
  FlatCache<Key, double, GoodHash> cache;
  for (std::uint64_t i = 0; i < 3000; ++i) cache.insert(Key{i, 0}, 1.0);
  const std::size_t bytes = cache.bytes();
  const std::size_t chunks = cache.chunks();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.chunks(), chunks);
  for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_EQ(cache.find(Key{i, 0}), nullptr) << i;
  std::size_t visited = 0;
  cache.for_each([&](const Key&, const double&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  // Refilling reuses the same chunks and index.
  for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_TRUE(cache.insert(Key{i, 1}, 2.0));
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.find(Key{5, 0}), nullptr);
  EXPECT_EQ(*cache.find(Key{5, 1}), 2.0);
}

TEST(FlatTable, ReleaseGivesBackEverything) {
  using Cache = FlatCache<Key, double, GoodHash>;
  Cache cache;
  for (std::uint64_t i = 0; i < 10 * Cache::kChunkEntries; ++i) cache.insert(Key{i, 0}, 1.0);
  ASSERT_EQ(cache.chunks(), 10u);
  cache.release();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(Key{1, 0}), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.chunks(), 0u);
  EXPECT_EQ(cache.index_slots(), 0u);
  EXPECT_TRUE(cache.insert(Key{1, 0}, 4.0));
  EXPECT_EQ(*cache.find(Key{1, 0}), 4.0);
}

TEST(FlatTable, GenerationWraparoundNeverResurrectsStaleEntries) {
  FlatCache<Key, double, GoodHash> cache;
  cache.insert(Key{0, 0}, 0.0);  // allocate the index before the seam
  cache.set_generation_for_testing(std::numeric_limits<std::uint32_t>::max() - 3);
  EXPECT_EQ(cache.find(Key{0, 0}), nullptr);
  // Eight rounds straddle the wrap; each writes keys whose index slots the
  // earlier rounds also used.
  for (std::uint32_t round = 0; round < 8; ++round) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(cache.insert(Key{i, round}, static_cast<double>(round)));
    }
    for (std::uint32_t past = 0; past < round; ++past) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        ASSERT_EQ(cache.find(Key{i, past}), nullptr) << "round " << round << " past " << past;
      }
    }
    for (std::uint64_t i = 0; i < 40; ++i) {
      const double* v = cache.find(Key{i, round});
      ASSERT_NE(v, nullptr);
      ASSERT_EQ(*v, static_cast<double>(round));
    }
    ASSERT_EQ(cache.size(), 40u);
    cache.clear();
    ASSERT_EQ(cache.size(), 0u);
  }
}

TEST(FlatTable, MoveLeavesAnEmptyUsableSource) {
  FlatCache<Key, double, GoodHash> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.insert(Key{i, 0}, static_cast<double>(i));
  FlatCache<Key, double, GoodHash> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(*b.find(Key{42, 0}), 42.0);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is the contract here
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(a.find(Key{42, 0}), nullptr);
  EXPECT_TRUE(a.insert(Key{42, 0}, 1.0));
  a = std::move(b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(*a.find(Key{42, 0}), 42.0);
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
  table.clear();
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) table.insert(Key{i, 7}, 1.0);
  }
  EXPECT_EQ(table.slots(), 8 * Table::kInitialSlots);
}

TEST(ComputedTable, ClearDropsEverythingAndKeepsTheSlots) {
  Table table;
  for (std::uint64_t i = 0; i < 3000; ++i) table.insert(Key{i, 0}, 1.0);
  const std::size_t bytes = table.bytes();
  const std::size_t slots = table.slots();
  ASSERT_GT(table.size(), 0u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes(), bytes);
  EXPECT_EQ(table.slots(), slots);
  for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_EQ(table.find(Key{i, 0}), nullptr) << i;
  table.release();
  EXPECT_EQ(table.bytes(), 0u);
  EXPECT_EQ(table.slots(), 0u);
  EXPECT_EQ(table.find(Key{1, 0}), nullptr);
}

TEST(ComputedTable, ClearAcrossAGenerationWrapNeverResurrectsStaleEntries) {
  Table table;
  table.insert(Key{0, 0}, 0.0);  // allocate the slots before the seam
  table.set_generation_for_testing(std::numeric_limits<std::uint32_t>::max() - 3);
  EXPECT_EQ(table.find(Key{0, 0}), nullptr);
  EXPECT_EQ(table.size(), 0u);
  // Eight rounds straddle the wrap; the 40 keys of each round sit in the
  // same home slots as every other round's, tagged apart.
  for (std::uint32_t round = 0; round < 8; ++round) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      table.insert(Key{i * Table::kInitialSlots, round}, static_cast<double>(round));
    }
    for (std::uint32_t past = 0; past < round; ++past) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        ASSERT_EQ(table.find(Key{i * Table::kInitialSlots, past}), nullptr)
            << "round " << round << " past " << past;
      }
    }
    std::size_t visited = 0;
    table.for_each([&](const Key& k, const double& v) {
      ++visited;
      ASSERT_EQ(k.tag, round);
      ASSERT_EQ(v, static_cast<double>(round));
    });
    ASSERT_EQ(visited, table.size());
    table.clear();
    ASSERT_EQ(table.size(), 0u);
  }
}

TEST(ComputedTable, ForEachVisitsLiveSlotsOnly) {
  ComputedTable<Key, double, CollidingHash> table;
  for (std::uint64_t i = 0; i < 4; ++i) table.insert(Key{i, 0}, 1.0);
  table.clear();
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
