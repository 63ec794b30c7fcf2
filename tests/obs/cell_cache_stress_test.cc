/**
 * @file
 * Concurrent-writer stress for FileCellCache (obs/cell_cache.hh).
 *
 * The cache's contract is that a store() is atomic: a concurrent
 * lookup() of the same key sees either a complete entry or a miss,
 * never a torn line, and once the writers finish exactly one entry
 * file survives with no temp-file debris. Two grid workers finishing
 * the same cell at once (or two processes sharing DIRSIM_CACHE_DIR)
 * exercise exactly this path through tmp + rename.
 */

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/cell_cache.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test cache directory under the gtest temp root. */
std::string
freshCacheDir(const char *name)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "dirsim_cache_stress" / name;
    fs::remove_all(dir);
    return dir.string();
}

TEST(FileCellCacheStressTest, ConcurrentSameKeyStoresNeverTear)
{
    const std::string dir = freshCacheDir("same_key");
    const Trace trace = generateTrace("pops", 8'000, 7);
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    constexpr std::uint64_t key = 0xfeedbeefcafe01u;
    constexpr std::uint64_t storesPerWriter = 200;

    // Two cache instances over one directory model two processes
    // racing; each instance gets its own writer thread.
    FileCellCache cacheA(dir);
    FileCellCache cacheB(dir);

    std::atomic<bool> go{false};
    std::atomic<bool> writersDone{false};
    const auto writer = [&](FileCellCache &cache) {
        while (!go.load())
            std::this_thread::yield();
        for (std::uint64_t i = 0; i < storesPerWriter; ++i)
            cache.store(key, result, 0.25);
    };

    // The reader hammers lookup() the whole time: every hit must be
    // a completely-parsed entry matching what the writers store. A
    // miss is only legal before the first rename lands.
    std::uint64_t hitsSeen = 0;
    std::thread reader([&] {
        FileCellCache cache(dir);
        while (!go.load())
            std::this_thread::yield();
        bool everHit = false;
        while (!writersDone.load()) {
            SimResult out;
            if (cache.lookup(key, out)) {
                everHit = true;
                ++hitsSeen;
                EXPECT_EQ(out.scheme, result.scheme);
                EXPECT_EQ(out.traceName, result.traceName);
                EXPECT_EQ(out.totalRefs, result.totalRefs);
                EXPECT_TRUE(out.events == result.events);
                EXPECT_TRUE(out.ops == result.ops);
            } else {
                // Once published, the entry can never disappear.
                EXPECT_FALSE(everHit)
                    << "entry vanished after being published";
            }
        }
    });

    std::thread writerA(writer, std::ref(cacheA));
    std::thread writerB(writer, std::ref(cacheB));
    go.store(true);
    writerA.join();
    writerB.join();
    writersDone.store(true);
    reader.join();

    EXPECT_EQ(cacheA.stores(), storesPerWriter);
    EXPECT_EQ(cacheB.stores(), storesPerWriter);
    EXPECT_GT(hitsSeen, 0u) << "reader never observed the entry";

    // Exactly one surviving file: the published entry. Any *.tmp.*
    // leftover means a store skipped its rename; a second entry
    // means two writers disagreed on the key's path.
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    ASSERT_EQ(files.size(), 1u)
        << "cache directory not clean: " << files.size() << " files";
    EXPECT_EQ(files[0].find(".tmp."), std::string::npos)
        << "temp debris survived: " << files[0];

    // And the survivor round-trips.
    SimResult out;
    ASSERT_TRUE(cacheA.lookup(key, out));
    EXPECT_EQ(out.totalRefs, result.totalRefs);
}

TEST(FileCellCacheStressTest, ManyThreadsDistinctKeysAllSurvive)
{
    const std::string dir = freshCacheDir("distinct_keys");
    const Trace trace = generateTrace("pops", 8'000, 9);
    const SimResult result = simulateTrace(trace, parseScheme("WTI"));

    FileCellCache cache(dir);
    constexpr unsigned threads = 4;
    constexpr std::uint64_t keysPerThread = 25;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (std::uint64_t k = 0; k < keysPerThread; ++k)
                cache.store(t * keysPerThread + k, result, 0.1);
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    EXPECT_EQ(cache.stores(), threads * keysPerThread);
    std::size_t survivors = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        ++survivors;
        EXPECT_EQ(entry.path().string().find(".tmp."),
                  std::string::npos);
    }
    EXPECT_EQ(survivors, threads * keysPerThread);

    for (std::uint64_t k = 0; k < threads * keysPerThread; ++k) {
        SimResult out;
        ASSERT_TRUE(cache.lookup(k, out)) << "key " << k << " lost";
        EXPECT_EQ(out.totalRefs, result.totalRefs);
    }
}

} // namespace
} // namespace dirsim
