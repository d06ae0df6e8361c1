/** @file Unit tests for the full TransArray accelerator model. */

#include <gtest/gtest.h>

#include "core/accelerator.h"
#include "workloads/generators.h"

namespace ta {
namespace {

TransArrayAccelerator::Config
acfg()
{
    TransArrayAccelerator::Config c;
    c.sampleLimit = 64;
    return c;
}

TEST(Accelerator, RunsSmallLayer)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 1);
    const LayerRun run = acc.runLayer(w, 256);
    EXPECT_GT(run.cycles, 0u);
    EXPECT_GT(run.computeCycles, 0u);
    EXPECT_GT(run.energy.total(), 0.0);
    EXPECT_EQ(run.subTiles, 2u * 16); // 512 rows/256 x 128/8 chunks
}

TEST(Accelerator, DramTrafficAccounting)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 2);
    const LayerRun run = acc.runLayer(w, 256);
    const uint64_t expected = 64 * 128       // 8-bit weights
                              + 128 * 256    // 8-bit activations
                              + 64 * 256 * 4; // 32-bit outputs
    EXPECT_EQ(run.dramBytes, expected);
}

TEST(Accelerator, FourBitWeightsRoughlyTwiceAsFast)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w8 = realLikeSlicedWeights(128, 256, 8, 3);
    const SlicedMatrix w4 = realLikeSlicedWeights(128, 256, 4, 3);
    const LayerRun r8 = acc.runLayer(w8, 2048);
    const LayerRun r4 = acc.runLayer(w4, 2048);
    const double speedup = static_cast<double>(r8.computeCycles) /
                           static_cast<double>(r4.computeCycles);
    EXPECT_NEAR(speedup, 2.0, 0.4);
}

TEST(Accelerator, MoreUnitsFewerCycles)
{
    auto c1 = acfg();
    c1.units = 1;
    auto c6 = acfg();
    c6.units = 6;
    const SlicedMatrix w = realLikeSlicedWeights(128, 128, 8, 4);
    const uint64_t one =
        TransArrayAccelerator(c1).runLayer(w, 2048).computeCycles;
    const uint64_t six =
        TransArrayAccelerator(c6).runLayer(w, 2048).computeCycles;
    EXPECT_NEAR(static_cast<double>(one) / six, 6.0, 0.5);
}

TEST(Accelerator, SamplingMatchesExhaustive)
{
    auto exact = acfg();
    exact.sampleLimit = 0; // simulate everything
    auto sampled = acfg();
    sampled.sampleLimit = 16;
    const SlicedMatrix w = realLikeSlicedWeights(128, 256, 8, 5);
    const LayerRun re = TransArrayAccelerator(exact).runLayer(w, 512);
    const LayerRun rs = TransArrayAccelerator(sampled).runLayer(w, 512);
    const double rel =
        std::abs(static_cast<double>(re.computeCycles) -
                 static_cast<double>(rs.computeCycles)) /
        re.computeCycles;
    EXPECT_LT(rel, 0.08);
}

TEST(Accelerator, EnergyBreakdownShape)
{
    // Fig. 11: buffers dominate, and the prefix buffer is the largest
    // on-chip consumer.
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(256, 512, 8, 6);
    const LayerRun run = acc.runLayer(w, 2048);
    const EnergyBreakdown &e = run.energy;
    EXPECT_GT(e.buffers(), e.core);
    EXPECT_GT(e.prefixBuf, e.weightBuf);
    EXPECT_GT(e.prefixBuf, e.inputBuf);
    EXPECT_GT(e.total(), 0.0);
}

TEST(Accelerator, StaticScoreboardVariantRuns)
{
    auto c = acfg();
    c.useStaticScoreboard = true;
    TransArrayAccelerator acc(c);
    const SlicedMatrix w = realLikeSlicedWeights(64, 128, 8, 7);
    const LayerRun run = acc.runLayer(w, 128);
    EXPECT_GT(run.cycles, 0u);
    // Static SI at 256-row tiles keeps misses rare but nonzero.
    EXPECT_GE(run.sparsity.siMisses, 0u);
}

TEST(Accelerator, DensityCloseToAnalyzer)
{
    TransArrayAccelerator acc(acfg());
    const SlicedMatrix w = realLikeSlicedWeights(256, 256, 8, 8);
    const LayerRun run = acc.runLayer(w, 64);
    EXPECT_NEAR(run.sparsity.totalDensity(), 0.1257, 0.01);
}

TEST(Accelerator, RunGemmConvenience)
{
    TransArrayAccelerator acc(acfg());
    const MatI32 w = realLikeWeights(32, 64, 8, 9);
    const LayerRun run = acc.runGemm(w, 8, 128);
    EXPECT_GT(run.cycles, 0u);
}

// ---- weight memo ----------------------------------------------------------

/** Every simulated field of two runs is identical (exec excluded). */
void
expectSameSimulation(const LayerRun &a, const LayerRun &b)
{
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.subTiles, b.subTiles);
    const EnergyBreakdown &x = a.energy, &y = b.energy;
    EXPECT_EQ(x.dramStatic, y.dramStatic);
    EXPECT_EQ(x.dramDynamic, y.dramDynamic);
    EXPECT_EQ(x.core, y.core);
    EXPECT_EQ(x.weightBuf, y.weightBuf);
    EXPECT_EQ(x.inputBuf, y.inputBuf);
    EXPECT_EQ(x.prefixBuf, y.prefixBuf);
    EXPECT_EQ(x.outputBuf, y.outputBuf);
    EXPECT_EQ(x.otherBuf, y.otherBuf);
    const SparsityStats &p = a.sparsity, &q = b.sparsity;
    EXPECT_EQ(p.rows, q.rows);
    EXPECT_EQ(p.denseOps, q.denseOps);
    EXPECT_EQ(p.bitOps, q.bitOps);
    EXPECT_EQ(p.zrRows, q.zrRows);
    EXPECT_EQ(p.prRows, q.prRows);
    EXPECT_EQ(p.frRows, q.frRows);
    EXPECT_EQ(p.trNodes, q.trNodes);
    EXPECT_EQ(p.outlierExtra, q.outlierExtra);
    EXPECT_EQ(p.siMisses, q.siMisses);
    EXPECT_EQ(p.distHist, q.distHist);
}

TEST(WeightMemoAccelerator, RepeatedKeyMatchesPreMemoOracle)
{
    // Within the repr cap the full-shape rescale is the identity, so
    // the pre-memo runShape result is runLayer on the freshly
    // synthesized byte-per-bit tensor.
    for (bool use_static : {false, true}) {
        TransArrayAccelerator::Config c = acfg();
        c.useStaticScoreboard = use_static;
        const TransArrayAccelerator acc(c);
        const GemmShape shape{192, 520, 96};
        const LayerRun oracle =
            acc.runLayer(realLikeSlicedWeights(192, 520, 4, 31), 96);
        for (int call = 0; call < 3; ++call) {
            const LayerRun run = acc.runShape(shape, 4, 31);
            expectSameSimulation(run, oracle);
            EXPECT_EQ(run.exec.get("weightMemo.hits"),
                      call == 0 ? 0u : 1u);
            EXPECT_EQ(run.exec.get("weightMemo.misses"),
                      call == 0 ? 1u : 0u);
        }
        const WeightMemo::Counters m = acc.weightMemoCounters();
        EXPECT_EQ(m.hits, 2u);
        EXPECT_EQ(m.misses, 1u);
        EXPECT_EQ(m.planes, 1u);
        EXPECT_EQ(m.residentBytes, 192u * 4 * ceilDiv(520, 8));
    }
}

TEST(WeightMemoAccelerator, CappedShapeHitEqualsFreshAccelerator)
{
    // Above the cap: the memoized plane serves every shape that maps
    // to the same (repr dims, wbits, seed), each rescaled by its own
    // dimensions, exactly as a fresh accelerator's miss does.
    const TransArrayAccelerator acc(acfg());
    const std::vector<GemmShape> shapes{
        {4096, 11008, 64}, {11008, 4096, 32}, {300, 5000, 16}};
    for (int round = 0; round < 2; ++round) {
        for (const GemmShape &shape : shapes) {
            const TransArrayAccelerator fresh(acfg());
            expectSameSimulation(acc.runShape(shape, 4, 5),
                                 fresh.runShape(shape, 4, 5));
        }
    }
    // All three shapes cap to the same 256 x 4096 plane.
    EXPECT_EQ(acc.weightMemoCounters().misses, 1u);
    EXPECT_EQ(acc.weightMemoCounters().hits, 5u);
}

TEST(WeightMemoAccelerator, EvictionKeepsBudgetAndResults)
{
    // 8-bit 512 x 4096 planes are 2 MiB each: nine of them overflow
    // the budget, so the oldest are evicted and rebuilt on demand.
    const size_t plane_bytes = 512 * 8 * (4096 / 8);
    const size_t keys = kWeightMemoBudgetBytes / plane_bytes + 1;
    const GemmShape shape{512, 4096, 8};
    const TransArrayAccelerator acc(acfg());
    std::vector<LayerRun> first;
    for (size_t i = 0; i < keys; ++i) {
        first.push_back(acc.runShape(shape, 8, 100 + i, 512, 4096));
        EXPECT_LE(acc.weightMemoCounters().residentBytes,
                  kWeightMemoBudgetBytes);
    }
    WeightMemo::Counters c = acc.weightMemoCounters();
    EXPECT_EQ(c.misses, keys);
    EXPECT_GE(c.evictions, 1u);
    EXPECT_EQ(c.residentBytes, c.planes * plane_bytes);
    // FIFO: key 0 was inserted first, so it is gone; the newest stays.
    const LayerRun again0 = acc.runShape(shape, 8, 100, 512, 4096);
    EXPECT_EQ(again0.exec.get("weightMemo.misses"), 1u);
    expectSameSimulation(again0, first[0]);
    const LayerRun again_last =
        acc.runShape(shape, 8, 100 + keys - 1, 512, 4096);
    EXPECT_EQ(again_last.exec.get("weightMemo.hits"), 1u);
    expectSameSimulation(again_last, first.back());
    EXPECT_LE(acc.weightMemoCounters().residentBytes,
              kWeightMemoBudgetBytes);
}

TEST(LayerRun, Accumulation)
{
    LayerRun a, b;
    a.cycles = 10;
    a.energy.core = 1;
    b.cycles = 5;
    b.energy.core = 2;
    b.sparsity.tBits = 8;
    a += b;
    EXPECT_EQ(a.cycles, 15u);
    EXPECT_DOUBLE_EQ(a.energy.core, 3.0);
}

} // namespace
} // namespace ta
