/// Tests for the solution cache: FNV fingerprinting, LRU order, eviction
/// accounting, replace-in-place semantics and the capacity-0 escape hatch.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "util/hash.hpp"

namespace rdse::serve {
namespace {

TEST(Fnv1a64, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a64_hex("foobar"), "85944171f73967e8");
}

TEST(SolutionCache, MissThenHitReturnsStoredBytes) {
  SolutionCache cache(4);
  EXPECT_FALSE(cache.lookup("k").has_value());
  cache.insert("k", "payload-bytes");
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  const SolutionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(SolutionCache, InsertReplacesInPlace) {
  SolutionCache cache(4);
  cache.insert("k", "old");
  cache.insert("k", "new");
  EXPECT_EQ(cache.lookup("k").value(), "new");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolutionCache, EvictsLeastRecentlyUsed) {
  SolutionCache cache(2);
  cache.insert("a", "1");
  cache.insert("b", "2");
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.lookup("a").has_value());
  cache.insert("c", "3");
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  const SolutionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(SolutionCache, ZeroCapacityDisablesCaching) {
  SolutionCache cache(0);
  cache.insert("k", "payload");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolutionCache, DistinctKeysWithEqualHashesDoNotAlias) {
  // The map is keyed by the full key string; even if two keys collided in
  // FNV space they must resolve to their own payloads.
  SolutionCache cache(8);
  cache.insert("key-one", "1");
  cache.insert("key-two", "2");
  EXPECT_EQ(cache.lookup("key-one").value(), "1");
  EXPECT_EQ(cache.lookup("key-two").value(), "2");
}

TEST(SolutionCache, ConcurrentMixedUseIsSafe) {
  // Exercised under TSan in CI: hammer one small cache from several
  // threads with overlapping keys so lookups, inserts and evictions race.
  SolutionCache cache(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t + i) % 6);
        if (const auto hit = cache.lookup(key)) {
          EXPECT_EQ(*hit, "v" + std::to_string((t + i) % 6));
        } else {
          cache.insert(key, "v" + std::to_string((t + i) % 6));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const SolutionCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
}

}  // namespace
}  // namespace rdse::serve
