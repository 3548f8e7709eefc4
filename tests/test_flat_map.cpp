// util::FlatMap against a std::unordered_map reference: inserts and finds
// over random keys across several doublings, and per-batch clears that
// leave no stale entry and keep the capacity.
#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace spooftrack::util {
namespace {

TEST(FlatMap, MatchesUnorderedMapAcrossDoublings) {
  FlatMap<std::uint64_t, std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  EXPECT_EQ(map.find(0), nullptr);  // empty map, no slots yet

  Rng rng{0xF1A7};
  std::size_t doublings = 0;
  std::size_t capacity = map.capacity();
  for (int i = 0; i < 20000; ++i) {
    // Half the keys come from a narrow range, so they repeat.
    const std::uint64_t key = rng.chance(0.5) ? rng.next_below(4096)
                                              : rng.next();
    const auto value = static_cast<std::uint32_t>(rng.next());
    const auto [stored, inserted] = map.try_emplace(key, value);
    const auto [it, ref_inserted] = reference.try_emplace(key, value);
    ASSERT_EQ(inserted, ref_inserted) << key;
    ASSERT_EQ(*stored, it->second) << key;
    ASSERT_EQ(map.size(), reference.size());
    ASSERT_LE(2 * map.size(), map.capacity());  // at most half full
    if (map.capacity() != capacity) {
      ++doublings;
      capacity = map.capacity();
    }
  }
  EXPECT_GE(doublings, 8u);

  for (const auto& [key, value] : reference) {
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value) << key;
  }
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.chance(0.5) ? rng.next_below(8192)
                                              : rng.next();
    EXPECT_EQ(map.find(key) != nullptr, reference.contains(key)) << key;
  }
}

TEST(FlatMap, ExtremeKeysAndStructValues) {
  struct Pair {
    std::uint32_t a;
    bool b;
  };
  FlatMap<std::uint32_t, Pair> map;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(map.try_emplace(0, {7, true}).second);
  EXPECT_TRUE(map.try_emplace(kMax, {9, false}).second);
  EXPECT_FALSE(map.try_emplace(0, {1, false}).second);  // value untouched
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(map.find(0)->a, 7u);
  EXPECT_TRUE(map.find(0)->b);
  ASSERT_NE(map.find(kMax), nullptr);
  EXPECT_EQ(map.find(kMax)->a, 9u);
  EXPECT_EQ(map.find(1), nullptr);

  // A value written through find() is what the next find() reads.
  map.find(kMax)->a = 11;
  EXPECT_EQ(map.find(kMax)->a, 11u);
}

TEST(FlatMap, ClearLeavesNoStaleEntryAndKeepsCapacity) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  Rng rng{7};
  std::unordered_map<std::uint32_t, std::uint32_t> previous;
  std::size_t capacity = 0;
  // Batches shrink and grow; keys come from a range narrow enough that
  // consecutive batches share many of them.
  const std::size_t sizes[] = {3000, 40, 1, 0, 700, 5000, 12, 2500, 300};
  for (std::uint32_t batch = 0; batch < std::size(sizes); ++batch) {
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), capacity) << "batch " << batch;
    for (const auto& entry : previous) {
      EXPECT_EQ(map.find(entry.first), nullptr) << "batch " << batch;
    }

    std::unordered_map<std::uint32_t, std::uint32_t> reference;
    for (std::size_t i = 0; i < sizes[batch]; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.next_below(1 << 13));
      const std::uint32_t value = batch * 100000 + static_cast<std::uint32_t>(i);
      const auto [stored, inserted] = map.try_emplace(key, value);
      const auto [it, ref_inserted] = reference.try_emplace(key, value);
      // A key of the batch before is new again, and takes this batch's
      // value.
      ASSERT_EQ(inserted, ref_inserted) << "batch " << batch << " key " << key;
      ASSERT_EQ(*stored, it->second);
    }
    EXPECT_EQ(map.size(), reference.size());
    for (std::uint32_t key = 0; key < (1 << 13); ++key) {
      const std::uint32_t* found = map.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second) << key;
      }
    }
    EXPECT_GE(map.capacity(), capacity);  // only an insert grows it
    capacity = map.capacity();
    previous = std::move(reference);
  }
}

}  // namespace
}  // namespace spooftrack::util
