/**
 * @file
 * Determinism contract of batch-level sharded execution: batched
 * results are bit-identical to serial per-layer runs across thread
 * counts {1, 2, 8}, batch windows {1, 4, 16} and every kernel backend
 * this build + host can dispatch (scalar oracle vs SIMD), including
 * mixed-precision suites and the parallelized baseline models vs.
 * their serial reference. Also pins the BatchScheduler's static task
 * decomposition: every (layer, item) is covered exactly once, by the
 * same shard partition the per-layer path uses.
 */

#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "core/accelerator.h"
#include "exec/batch_scheduler.h"
#include "kernels/kernel_table.h"
#include "workloads/generators.h"
#include "workloads/llama.h"
#include "workloads/resnet18.h"
#include "workloads/suite_runner.h"

namespace ta {
namespace {

/** Restores the dispatched kernel table on scope exit. */
struct KernelGuard
{
    std::string prev;

    KernelGuard() : prev(kernelArch()) {}
    ~KernelGuard() { setKernels(prev); }
};

// ---- BatchScheduler task decomposition ----------------------------------

TEST(BatchScheduler, TasksPartitionEveryLayerExactly)
{
    for (int shards : {1, 2, 3, 8}) {
        const std::vector<size_t> items{5, 0, 17, 1, 64, 3};
        const std::vector<LayerTask> tasks =
            BatchScheduler::buildTasks(items, shards);
        std::vector<std::vector<int>> touched(items.size());
        for (size_t l = 0; l < items.size(); ++l)
            touched[l].assign(items[l], 0);
        for (const LayerTask &t : tasks) {
            ASSERT_LT(t.layer, items.size());
            ASSERT_GE(t.shard, 0);
            ASSERT_LT(t.shard, shards);
            ASSERT_LT(t.begin, t.end); // empty tasks are skipped
            ASSERT_LE(t.end, items[t.layer]);
            // The per-layer shard partition is exactly the one
            // per-layer dispatch would use.
            EXPECT_EQ(t.begin, ParallelExecutor::shardBegin(
                                   items[t.layer], t.shard, shards));
            EXPECT_EQ(t.end, ParallelExecutor::shardBegin(
                                 items[t.layer], t.shard + 1, shards));
            for (size_t i = t.begin; i < t.end; ++i)
                ++touched[t.layer][i];
        }
        for (size_t l = 0; l < items.size(); ++l)
            for (int c : touched[l])
                EXPECT_EQ(c, 1);
    }
}

TEST(BatchScheduler, RunsPrepareBeforeProcessingAndCounts)
{
    ParallelExecutor pool(4);
    BatchScheduler sched(pool);
    std::vector<int> prepared(6, 0);
    // Tasks may only write their own (layer, shard) slot — exactly the
    // discipline the scheduler documents.
    std::vector<std::vector<size_t>> processed(
        6, std::vector<size_t>(pool.threads(), 0));
    sched.run(
        6,
        [&](size_t l) -> size_t {
            prepared[l] = 1;
            return l + 1; // layer l has l+1 items
        },
        [&](const LayerTask &t, int) {
            EXPECT_EQ(prepared[t.layer], 1); // phase barrier held
            processed[t.layer][t.shard] += t.end - t.begin;
        });
    for (size_t l = 0; l < 6; ++l) {
        size_t total = 0;
        for (size_t s : processed[l])
            total += s;
        EXPECT_EQ(total, l + 1);
    }
    EXPECT_EQ(sched.batchesCompleted(), 1u);
}

// ---- runLayersBatched vs serial runShape --------------------------------

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
    c.sampleLimit = 32;
    c.threads = threads;
    c.useStaticScoreboard = use_static;
    return c;
}

std::vector<BatchLayerRequest>
mixedShapeRequests()
{
    // Mixed sizes and precisions, including a degenerate layer (m = 0)
    // that must survive batching like runShape survives it.
    return {
        BatchLayerRequest{{512, 512, 256}, 4, 9},
        BatchLayerRequest{{256, 1024, 128}, 8, 10},
        BatchLayerRequest{{96, 256, 64}, 4, 11},
        BatchLayerRequest{{128, 128, 0}, 4, 12},
        BatchLayerRequest{{768, 256, 512}, 6, 13},
        BatchLayerRequest{{64, 64, 32}, 2, 14},
    };
}

TEST(RunLayersBatched, BitIdenticalToSerialAcrossThreadsAndWindows)
{
    const std::vector<BatchLayerRequest> reqs = mixedShapeRequests();
    KernelGuard guard;

    // Serial per-layer reference at one thread on the scalar oracle.
    ASSERT_TRUE(setKernels("scalar"));
    const TransArrayAccelerator ref(accCfg(1));
    std::vector<LayerRun> expect;
    for (const BatchLayerRequest &r : reqs)
        expect.push_back(ref.runShape(r.shape, r.weightBits, r.seed));

    // The kernel backend is a third determinism dimension: every
    // vector table must reproduce the scalar reference bit-for-bit
    // under every (threads, window) combination.
    for (const std::string &arch : availableKernelArchs()) {
        ASSERT_TRUE(setKernels(arch));
        for (int threads : {1, 2, 8}) {
            for (size_t window : {size_t{1}, size_t{4}, size_t{16}}) {
                const TransArrayAccelerator acc(accCfg(threads));
                // Windows smaller than the request list exercise
                // multiple batches against one accelerator (shared
                // plan cache).
                std::vector<LayerRun> got;
                for (size_t i = 0; i < reqs.size(); i += window) {
                    const std::vector<BatchLayerRequest> win(
                        reqs.begin() + i,
                        reqs.begin() +
                            std::min(reqs.size(), i + window));
                    const std::vector<LayerRun> runs =
                        acc.runLayersBatched(win);
                    got.insert(got.end(), runs.begin(), runs.end());
                }
                ASSERT_EQ(got.size(), expect.size());
                for (size_t i = 0; i < got.size(); ++i)
                    expectLayerRunEqual(got[i], expect[i]);
            }
        }
    }
}

TEST(RunLayersBatched, StaticScoreboardPathBitIdentical)
{
    const std::vector<BatchLayerRequest> reqs{
        BatchLayerRequest{{256, 256, 128}, 4, 21},
        BatchLayerRequest{{128, 512, 64}, 4, 22},
        BatchLayerRequest{{96, 128, 32}, 8, 23},
    };
    const TransArrayAccelerator ref(accCfg(1, true));
    const TransArrayAccelerator acc(accCfg(8, true));
    const std::vector<LayerRun> got = acc.runLayersBatched(reqs);
    for (size_t i = 0; i < reqs.size(); ++i)
        expectLayerRunEqual(got[i],
                            ref.runShape(reqs[i].shape,
                                         reqs[i].weightBits,
                                         reqs[i].seed));
}

TEST(RunLayersBatched, PerLayerExecCountersStayAttributable)
{
    const std::vector<BatchLayerRequest> reqs = mixedShapeRequests();
    const TransArrayAccelerator acc(accCfg(2));
    const std::vector<LayerRun> runs = acc.runLayersBatched(reqs);
    for (size_t i = 0; i < runs.size(); ++i) {
        const uint64_t sampled =
            runs[i].exec.get("exec.sampledSubTiles");
        if (reqs[i].shape.m == 0) {
            EXPECT_EQ(sampled, 0u);
            continue;
        }
        EXPECT_GT(sampled, 0u);
        // Local per-layer lookup outcomes cover every sampled sub-tile.
        EXPECT_EQ(runs[i].exec.get("planCache.hits") +
                      runs[i].exec.get("planCache.misses"),
                  sampled);
        // Deterministic static sharding: shard counts are fixed by
        // (sampled, threads) alone.
        EXPECT_EQ(runs[i].exec.get("exec.shard0.subTiles") +
                      runs[i].exec.get("exec.shard1.subTiles"),
                  sampled);
    }
}

TEST(RunLayersBatched, MemoizedWindowMatchesSerialRunShape)
{
    // One window mixing duplicate synthesized keys, catalog-style views
    // (one of them the very plane a synthesized layer memoizes) and
    // fresh keys, twice against the same accelerator so the second
    // window runs on memo hits.
    const GemmShape a{512, 512, 256}, b{256, 1024, 128}, c{96, 256, 64};
    const PackedPlane view_a = synthesizePackedPlane(256, 512, 4, 9);
    const PackedPlane view_d = synthesizePackedPlane(128, 300, 8, 40);
    const WeightView va = view_a.view(), vd = view_d.view();
    std::vector<BatchLayerRequest> reqs{
        BatchLayerRequest{a, 4, 9},
        BatchLayerRequest{b, 8, 10},
        BatchLayerRequest{a, 4, 9},
        BatchLayerRequest{a, 4, 9},
        BatchLayerRequest{c, 4, 11},
        BatchLayerRequest{{128, 300, 32}, 8, 40},
        BatchLayerRequest{{128, 128, 0}, 4, 12},
    };
    reqs.push_back(BatchLayerRequest{a, 4, 9});
    reqs.back().view = &va;
    reqs.push_back(BatchLayerRequest{{128, 300, 32}, 8, 40});
    reqs.back().view = &vd;

    std::vector<LayerRun> expect;
    for (const BatchLayerRequest &r : reqs) {
        const TransArrayAccelerator fresh(accCfg(1));
        expect.push_back(fresh.runShape(r.shape, r.weightBits, r.seed));
    }
    for (int threads : {1, 2, 8}) {
        const TransArrayAccelerator acc(accCfg(threads));
        for (int round = 0; round < 2; ++round) {
            const std::vector<LayerRun> got = acc.runLayersBatched(reqs);
            ASSERT_EQ(got.size(), expect.size());
            for (size_t i = 0; i < got.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << "threads " << threads << " round "
                             << round << " layer " << i);
                expectLayerRunEqual(got[i], expect[i]);
                EXPECT_EQ(got[i].energy.core, expect[i].energy.core);
                const uint64_t lookups =
                    got[i].exec.get("weightMemo.hits") +
                    got[i].exec.get("weightMemo.misses");
                EXPECT_EQ(lookups, reqs[i].view != nullptr ? 0u : 1u);
                if (round == 1 && reqs[i].view == nullptr) {
                    EXPECT_EQ(got[i].exec.get("weightMemo.hits"), 1u);
                }
            }
        }
        // Five distinct synthesized keys; racing duplicates in the
        // first window may build a key twice but keep one plane.
        const WeightMemo::Counters m = acc.weightMemoCounters();
        EXPECT_EQ(m.planes, 5u);
        EXPECT_EQ(m.hits + m.misses, 14u);
        EXPECT_GE(m.misses, 5u);
    }
}

// ---- suite_runner batch windows -----------------------------------------

void
expectSuiteEqual(const SuiteRunResult &a, const SuiteRunResult &b)
{
    ASSERT_EQ(a.perLayer.size(), b.perLayer.size());
    for (size_t i = 0; i < a.perLayer.size(); ++i)
        expectLayerRunEqual(a.perLayer[i], b.perLayer[i]);
    expectLayerRunEqual(a.total, b.total);
}

TEST(BatchedSuiteRunner, RunSuiteBitIdenticalAcrossWindows)
{
    const WorkloadSuite suite = llamaFcLayers(llama1_7b());
    const TransArrayAccelerator ref(accCfg(1));
    const SuiteRunResult serial = runSuite(ref, suite, 4, 1);
    for (int threads : {1, 2, 8}) {
        for (size_t window : {size_t{1}, size_t{4}, size_t{16}}) {
            const TransArrayAccelerator acc(accCfg(threads));
            expectSuiteEqual(runSuite(acc, suite, 4, 1, window),
                             serial);
        }
    }
}

TEST(BatchedSuiteRunner, MixedPrecisionSuiteBitIdentical)
{
    // Fig. 14's pattern: 8-bit edge layers on one engine, 4-bit inner
    // layers on another — windows must flush on engine changes.
    WorkloadSuite s = resnet18Layers();
    s.layers.resize(std::min<size_t>(s.layers.size(), 7));

    auto make_pick = [](const TransArrayAccelerator &a8,
                        const TransArrayAccelerator &a4,
                        size_t n_layers) {
        return [&a8, &a4, n_layers](size_t i, const GemmLayerDesc &) {
            const bool edge = i == 0 || i + 1 == n_layers;
            return edge ? LayerEnginePick{&a8, 8}
                        : LayerEnginePick{&a4, 4};
        };
    };

    TransArrayAccelerator::Config c4 = accCfg(1);
    c4.actBits = 4;
    const TransArrayAccelerator ref8(accCfg(1)), ref4(c4);
    const SuiteRunResult serial = runSuiteMixed(
        s, make_pick(ref8, ref4, s.layers.size()), 33);

    for (int threads : {2, 8}) {
        TransArrayAccelerator::Config p4 = accCfg(threads);
        p4.actBits = 4;
        const TransArrayAccelerator acc8(accCfg(threads)), acc4(p4);
        for (size_t window : {size_t{4}, size_t{16}}) {
            expectSuiteEqual(
                runSuiteMixed(s,
                              make_pick(acc8, acc4, s.layers.size()),
                              33, window),
                serial);
        }
    }
}

TEST(BatchedSuiteRunner, SuiteCyclesAgreesWithPerLayerLoop)
{
    const WorkloadSuite suite = llamaAttentionLayers(llama1_7b());
    const TransArrayAccelerator acc(accCfg(2));
    const uint64_t serial = suiteCycles(acc, suite, 8, 100);
    EXPECT_EQ(suiteCycles(acc, suite, 8, 100, 4), serial);
    EXPECT_EQ(suiteCycles(acc, suite, 8, 100, 16), serial);
}

// ---- parallelized baselines vs serial reference -------------------------

TEST(ParallelBaselines, SuiteBitIdenticalToSerialReference)
{
    const WorkloadSuite suite = llamaFcLayers(llama2_13b());
    for (const char *name :
         {"BitFusion", "ANT", "Olive", "Tender", "BitVert"}) {
        const auto acc = makeBaseline(name);
        const BaselineSuiteResult serial =
            runBaselineSuite(*acc, suite, 8, 8, 0.5, nullptr);
        for (int threads : {2, 8}) {
            ParallelExecutor pool(threads);
            const BaselineSuiteResult par =
                runBaselineSuite(*acc, suite, 8, 8, 0.5, &pool);
            ASSERT_EQ(par.perLayer.size(), serial.perLayer.size());
            for (size_t i = 0; i < par.perLayer.size(); ++i) {
                EXPECT_EQ(par.perLayer[i].cycles,
                          serial.perLayer[i].cycles)
                    << name << " layer " << i;
                EXPECT_DOUBLE_EQ(par.perLayer[i].energy.total(),
                                 serial.perLayer[i].energy.total());
            }
            EXPECT_EQ(par.total.cycles, serial.total.cycles);
            EXPECT_DOUBLE_EQ(par.total.energy.total(),
                             serial.total.energy.total());
        }
    }
}

TEST(ParallelBaselines, CountsApplyToTotals)
{
    WorkloadSuite s;
    s.name = "counted";
    s.layers.push_back({"a", {256, 256, 64}, 3, false});
    s.layers.push_back({"b", {128, 512, 32}, 1, false});
    const auto acc = makeBaseline("Olive");
    const BaselineSuiteResult r =
        runBaselineSuite(*acc, s, 8, 8, 0.5, nullptr);
    EXPECT_EQ(r.total.cycles, 3 * r.perLayer[0].cycles +
                                  r.perLayer[1].cycles);
}

} // namespace
} // namespace ta
