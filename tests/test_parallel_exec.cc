/**
 * @file
 * Determinism contract of the parallel sub-tile execution engine: the
 * functional engine's outputs/stats and the cycle model's LayerRun are
 * bit-identical for every thread count, the plan cache returns plans
 * equivalent to fresh Scoreboard::build results, and the executor's
 * static sharding covers ranges exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/accelerator.h"
#include "core/transitive_gemm.h"
#include "exec/parallel_executor.h"
#include "exec/plan_cache.h"
#include "exec/weight_memo.h"
#include "workloads/generators.h"

namespace ta {
namespace {

// ---- ParallelExecutor ---------------------------------------------------

TEST(ParallelExecutor, ShardsPartitionRangeExactly)
{
    for (int threads : {1, 2, 3, 8}) {
        for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
            size_t prev = 0;
            for (int s = 0; s <= threads; ++s) {
                const size_t b =
                    ParallelExecutor::shardBegin(n, s, threads);
                EXPECT_GE(b, prev);
                prev = b;
            }
            EXPECT_EQ(ParallelExecutor::shardBegin(n, 0, threads), 0u);
            EXPECT_EQ(ParallelExecutor::shardBegin(n, threads, threads),
                      n);
        }
    }
}

TEST(ParallelExecutor, RunsEveryItemExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        ParallelExecutor pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        std::vector<int> touched(257, 0);
        pool.run(touched.size(), [&](int, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                ++touched[i];
        });
        for (int t : touched)
            EXPECT_EQ(t, 1);
    }
}

TEST(ParallelExecutor, PropagatesWorkerExceptions)
{
    ParallelExecutor pool(4);
    EXPECT_THROW(pool.run(100,
                          [&](int shard, size_t, size_t) {
                              if (shard == 2)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> ok{0};
    pool.run(4, [&](int, size_t b, size_t e) {
        ok += static_cast<int>(e - b);
    });
    EXPECT_EQ(ok.load(), 4);
}

TEST(ParallelExecutor, ReentrantRunFailsInsteadOfHanging)
{
    // A run() from inside a run() of the same pool used to block on
    // its own call lock forever; it now panics, from the caller's
    // shard and from a worker's, and the pool stays usable.
    for (int threads : {1, 4}) {
        ParallelExecutor pool(threads);
        for (int from = 0; from < threads; from += 3) {
            EXPECT_THROW(pool.run(threads,
                                  [&](int shard, size_t, size_t) {
                                      if (shard == from)
                                          pool.run(1, [](int, size_t,
                                                         size_t) {});
                                  }),
                         std::logic_error)
                << threads << " threads, from shard " << from;
        }
        std::atomic<int> ok{0};
        pool.run(8, [&](int, size_t b, size_t e) {
            ok += static_cast<int>(e - b);
        });
        EXPECT_EQ(ok.load(), 8);
    }
    // Nesting a different pool inside a shard is fine.
    ParallelExecutor outer(2), inner(2);
    std::atomic<int> items{0};
    outer.run(2, [&](int shard, size_t, size_t) {
        if (shard == 0)
            inner.run(6, [&](int, size_t b, size_t e) {
                items += static_cast<int>(e - b);
            });
    });
    EXPECT_EQ(items.load(), 6);
}

TEST(ParallelExecutorDeathTest, UncaughtReentrantRunEndsTheProcess)
{
    // Where nothing catches the panic (a thread's entry function, a
    // tool's main), a re-entrant run ends the process with a named
    // message rather than hanging it.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ParallelExecutor pool(2);
            std::thread caller([&] {
                pool.run(2, [&](int, size_t, size_t) {
                    pool.run(1, [](int, size_t, size_t) {});
                });
            });
            caller.join();
        },
        "re-entrant ParallelExecutor::run");
}

// ---- PlanCache ----------------------------------------------------------

void
expectPlansEqual(const Plan &a, const Plan &b)
{
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    EXPECT_EQ(a.numRows, b.numRows);
    EXPECT_EQ(a.zeroRows, b.zeroRows);
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
        EXPECT_EQ(a.nodes[i].count, b.nodes[i].count);
        EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
        EXPECT_EQ(a.nodes[i].distance, b.nodes[i].distance);
        EXPECT_EQ(a.nodes[i].materialized, b.nodes[i].materialized);
        EXPECT_EQ(a.nodes[i].outlier, b.nodes[i].outlier);
        EXPECT_EQ(a.nodes[i].lane, b.nodes[i].lane);
    }
}

TEST(PlanCache, CachedPlanMatchesFreshBuild)
{
    ScoreboardConfig sc;
    sc.tBits = 8;
    Scoreboard sb(sc);
    PlanCache cache(128);
    Rng rng(99);

    std::vector<std::vector<uint32_t>> tiles;
    for (int i = 0; i < 16; ++i) {
        std::vector<uint32_t> v(64);
        for (auto &x : v)
            x = static_cast<uint32_t>(rng.uniformInt(0, 255));
        tiles.push_back(v);
    }
    // Two passes: first populates, second hits; both must agree with a
    // fresh build.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &v : tiles) {
            const auto cached =
                cache.getOrBuild(v, [&] { return sb.build(v); });
            expectPlansEqual(*cached, sb.build(v));
        }
    }
    const PlanCache::Counters c = cache.counters();
    EXPECT_EQ(c.misses, tiles.size());
    EXPECT_EQ(c.hits, tiles.size());
    EXPECT_EQ(cache.size(), tiles.size());
}

TEST(PlanCache, EvictsLeastRecentlyUsed)
{
    ScoreboardConfig sc;
    sc.tBits = 4;
    Scoreboard sb(sc);
    PlanCache cache(4, 1); // one shard, 4 entries
    auto key = [](uint32_t v) { return std::vector<uint32_t>{v, v}; };
    for (uint32_t v = 1; v <= 6; ++v)
        cache.getOrBuild(key(v), [&] { return sb.build(key(v)); });
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.counters().evictions, 2u);
    // Oldest keys were evicted: re-fetching key(1) misses again.
    cache.getOrBuild(key(1), [&] { return sb.build(key(1)); });
    EXPECT_EQ(cache.counters().misses, 7u);
}

TEST(PlanCache, DisabledCacheStillBuilds)
{
    ScoreboardConfig sc;
    sc.tBits = 4;
    Scoreboard sb(sc);
    PlanCache cache(0);
    const std::vector<uint32_t> v{1, 2, 3};
    const auto plan = cache.getOrBuild(v, [&] { return sb.build(v); });
    expectPlansEqual(*plan, sb.build(v));
    EXPECT_EQ(cache.size(), 0u);
}

// ---- WeightMemo ---------------------------------------------------------

/** A stand-in plane of `bytes` bytes, each holding the key's seed. */
std::function<PackedPlane()>
fakePlane(const WeightMemo::Key &key, size_t bytes, int *builds)
{
    return [=] {
        ++*builds;
        PackedPlane p;
        p.bytes.assign(bytes, static_cast<uint8_t>(key.seed));
        return p;
    };
}

TEST(WeightMemo, EvictsOldestInsertedFirst)
{
    WeightMemo memo(300);
    int builds = 0;
    auto get = [&](uint64_t seed, bool *hit) {
        const WeightMemo::Key k{4, 8, 4, seed};
        return memo.getOrBuild(k, fakePlane(k, 100, &builds), hit);
    };
    bool hit = true;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        get(seed, &hit);
        EXPECT_FALSE(hit);
    }
    get(1, &hit); // a hit does not refresh insertion order
    EXPECT_TRUE(hit);
    const WeightMemo::Plane held = get(1, &hit);
    get(4, &hit); // evicts seed 1, the oldest inserted
    EXPECT_FALSE(hit);
    WeightMemo::Counters c = memo.counters();
    EXPECT_EQ(c.evictions, 1u);
    EXPECT_EQ(c.residentBytes, 300u);
    EXPECT_EQ(c.planes, 3u);
    // A plane evicted while held stays intact for its holder.
    EXPECT_EQ(held->bytes, std::vector<uint8_t>(100, 1));
    get(2, &hit);
    EXPECT_TRUE(hit);
    get(1, &hit); // rebuilt, evicting seed 2
    EXPECT_FALSE(hit);
    get(2, &hit);
    EXPECT_FALSE(hit);
    c = memo.counters();
    EXPECT_EQ(c.hits, 3u);
    EXPECT_EQ(c.misses, 6u);
    EXPECT_EQ(builds, 6);
    EXPECT_LE(c.residentBytes, 300u);
}

TEST(WeightMemo, OversizePlaneIsServedButNotKept)
{
    WeightMemo memo(64);
    int builds = 0;
    const WeightMemo::Key small{1, 8, 4, 1}, big{1, 800, 4, 2};
    memo.getOrBuild(small, fakePlane(small, 32, &builds));
    const WeightMemo::Plane p =
        memo.getOrBuild(big, fakePlane(big, 100, &builds));
    EXPECT_EQ(p->bytes.size(), 100u);
    const WeightMemo::Counters c = memo.counters();
    EXPECT_EQ(c.planes, 1u); // the small plane survived
    EXPECT_EQ(c.residentBytes, 32u);
    EXPECT_EQ(c.evictions, 0u);
}

TEST(WeightMemo, RacingMissesShareOnePlane)
{
    WeightMemo memo(kWeightMemoBudgetBytes);
    const WeightMemo::Key key{16, 64, 4, 7};
    std::atomic<int> builds{0};
    std::vector<WeightMemo::Plane> got(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = memo.getOrBuild(key, [&] {
                ++builds;
                return synthesizePackedPlane(16, 64, 4, 7);
            });
        });
    for (std::thread &th : threads)
        th.join();
    const PackedPlane want = synthesizePackedPlane(16, 64, 4, 7);
    for (const WeightMemo::Plane &p : got)
        EXPECT_EQ(p->bytes, want.bytes);
    const WeightMemo::Counters c = memo.counters();
    EXPECT_EQ(c.planes, 1u);
    EXPECT_EQ(c.hits + c.misses, got.size());
    EXPECT_EQ(c.misses, static_cast<uint64_t>(builds.load()));
}

// ---- Scoreboard scratch reuse -------------------------------------------

TEST(ScoreboardScratch, ReusedScratchGivesIdenticalPlans)
{
    ScoreboardConfig sc;
    sc.tBits = 8;
    sc.maxDistance = 4;
    Scoreboard sb(sc);
    Scoreboard::Scratch scratch;
    Rng rng(7);
    for (int i = 0; i < 32; ++i) {
        std::vector<uint32_t> v(128);
        for (auto &x : v)
            x = static_cast<uint32_t>(rng.uniformInt(0, 255));
        expectPlansEqual(sb.build(v, nullptr, scratch), sb.build(v));
    }
}

// ---- Functional engine determinism --------------------------------------

void
expectStatsEqual(const SparsityStats &a, const SparsityStats &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.denseOps, b.denseOps);
    EXPECT_EQ(a.bitOps, b.bitOps);
    EXPECT_EQ(a.zrRows, b.zrRows);
    EXPECT_EQ(a.prRows, b.prRows);
    EXPECT_EQ(a.frRows, b.frRows);
    EXPECT_EQ(a.trNodes, b.trNodes);
    EXPECT_EQ(a.outlierExtra, b.outlierExtra);
    EXPECT_EQ(a.siMisses, b.siMisses);
    EXPECT_EQ(a.distHist, b.distHist);
}

TransitiveGemmConfig
gemmCfg(int threads, size_t cache_capacity = 4096)
{
    TransitiveGemmConfig c;
    c.scoreboard.tBits = 8;
    c.maxTransRows = 32; // several row tiles even on small matrices
    c.threads = threads;
    c.planCacheCapacity = cache_capacity;
    return c;
}

TEST(ParallelTransitiveGemm, BitIdenticalAcrossThreadCounts)
{
    const MatI32 w = realLikeWeights(48, 96, 6, 321);
    const MatI32 in = randomActivations(96, 9, 8, 322);

    const TransitiveGemmEngine ref(gemmCfg(1));
    const TransitiveGemmResult r1 = ref.run(w, 6, in);
    EXPECT_TRUE(r1.output == denseGemm(w, in));

    for (int threads : {2, 8}) {
        const TransitiveGemmEngine eng(gemmCfg(threads));
        const TransitiveGemmResult r = eng.run(w, 6, in);
        EXPECT_TRUE(r.output == r1.output) << threads << " threads";
        EXPECT_EQ(r.subTiles, r1.subTiles);
        expectStatsEqual(r.stats, r1.stats);
    }
}

TEST(ParallelTransitiveGemm, CacheOnAndOffAgree)
{
    const MatI32 w = realLikeWeights(32, 64, 4, 11);
    const MatI32 in = randomActivations(64, 5, 8, 12);
    const TransitiveGemmEngine cached(gemmCfg(2, 4096));
    const TransitiveGemmEngine uncached(gemmCfg(2, 0));
    const auto rc = cached.run(w, 4, in);
    const auto ru = uncached.run(w, 4, in);
    EXPECT_TRUE(rc.output == ru.output);
    expectStatsEqual(rc.stats, ru.stats);
    EXPECT_TRUE(rc.output == denseGemm(w, in));
}

TEST(ParallelTransitiveGemm, RepeatedRunsHitTheCache)
{
    // Ternary-style weights: tiny value alphabet, so sub-tiles repeat
    // and the second run should be nearly all hits.
    MatI32 w(16, 64);
    Rng rng(5);
    for (auto &x : w.data())
        x = static_cast<int32_t>(rng.uniformInt(-1, 1));
    const MatI32 in = randomActivations(64, 4, 8, 6);
    const TransitiveGemmEngine eng(gemmCfg(1));
    const auto r1 = eng.run(w, 2, in);
    const auto r2 = eng.run(w, 2, in);
    EXPECT_TRUE(r1.output == r2.output);
    EXPECT_EQ(r2.exec.get("planCache.misses"), 0u);
    EXPECT_EQ(r2.exec.get("planCache.hits"), r2.subTiles);
}

// ---- Cycle model determinism --------------------------------------------

void
expectLayerRunEqual(const LayerRun &a, const LayerRun &b)
{
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.subTiles, b.subTiles);
    expectStatsEqual(a.sparsity, b.sparsity);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TransArrayAccelerator::Config
accCfg(int threads, bool use_static = false)
{
    TransArrayAccelerator::Config c;
    c.sampleLimit = 48;
    c.threads = threads;
    c.useStaticScoreboard = use_static;
    return c;
}

TEST(ParallelAccelerator, RunLayerBitIdenticalAcrossThreadCounts)
{
    const SlicedMatrix w = realLikeSlicedWeights(96, 256, 4, 77);
    const LayerRun r1 =
        TransArrayAccelerator(accCfg(1)).runLayer(w, 128);
    for (int threads : {2, 8}) {
        const LayerRun r =
            TransArrayAccelerator(accCfg(threads)).runLayer(w, 128);
        expectLayerRunEqual(r, r1);
    }
}

TEST(ParallelAccelerator, RunShapeBitIdenticalAcrossThreadCounts)
{
    const GemmShape shape{512, 512, 256};
    const LayerRun r1 =
        TransArrayAccelerator(accCfg(1)).runShape(shape, 4, 9);
    for (int threads : {2, 8}) {
        const LayerRun r =
            TransArrayAccelerator(accCfg(threads)).runShape(shape, 4, 9);
        expectLayerRunEqual(r, r1);
    }
}

TEST(ParallelAccelerator, StaticScoreboardPathAlsoDeterministic)
{
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 4, 13);
    const LayerRun r1 =
        TransArrayAccelerator(accCfg(1, true)).runLayer(w, 64);
    const LayerRun r8 =
        TransArrayAccelerator(accCfg(8, true)).runLayer(w, 64);
    expectLayerRunEqual(r8, r1);
}

TEST(ParallelAccelerator, ExecCountersSurfaceCacheActivity)
{
    const SlicedMatrix w = realLikeSlicedWeights(96, 256, 4, 21);
    TransArrayAccelerator acc(accCfg(2));
    const LayerRun run = acc.runLayer(w, 128);
    const uint64_t sampled = run.exec.get("exec.sampledSubTiles");
    EXPECT_GT(sampled, 0u);
    EXPECT_EQ(run.exec.get("planCache.hits") +
                  run.exec.get("planCache.misses"),
              sampled);
    // Deterministic static sharding: shard counts are fixed by
    // (sampled, threads) alone.
    EXPECT_EQ(run.exec.get("exec.shard0.subTiles") +
                  run.exec.get("exec.shard1.subTiles"),
              sampled);
    // Second identical layer: every sub-tile plan is already cached.
    const LayerRun again = acc.runLayer(w, 128);
    EXPECT_EQ(again.exec.get("planCache.misses"), 0u);
}

} // namespace
} // namespace ta
