/**
 * @file
 * The calibrated cost model's contracts: the monotonicity properties
 * the planner relies on (cost monotone in layer count and tile area,
 * cache-hit prediction <= cache-miss prediction — guaranteed by the
 * nonnegative-coefficients fit, verified here over the calibration
 * battery), the calibration round-trip (fit -> save -> load ->
 * bit-identical predictions), wholesale rejection of corrupt or
 * truncated coefficients files, and a pinned prediction-error
 * tolerance on synthetic fixture data.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/cost_model.h"

namespace ta {
namespace {

ServiceRequest
requestOf(uint64_t n, uint64_t k, uint64_t m, int wbits,
          bool use_static = false, uint64_t samples = 96)
{
    ServiceRequest r;
    r.shape = {n, k, m};
    r.wbits = wbits;
    r.useStatic = use_static;
    r.samples = samples;
    return r;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeAll(const std::string &path, const std::string &body)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
}

// ---- monotonicity properties --------------------------------------------

TEST(CostModel_, PredictionMonotoneInTileArea)
{
    const CostModel model = CostModel::builtin();
    // Growing any one geometry axis (rows, depth, columns, weight
    // bits, sample budget) must never shrink the predicted cost: the
    // features are monotone in the axes and the coefficients are
    // nonnegative by construction.
    const uint64_t dims[] = {64, 128, 256, 1024, 4096};
    double prev = -1.0;
    for (uint64_t n : dims) {
        const double p = model.predictMs(requestOf(n, 512, 256, 4));
        EXPECT_GE(p, prev) << "n " << n;
        prev = p;
    }
    prev = -1.0;
    for (uint64_t k : dims) {
        const double p = model.predictMs(requestOf(256, k, 256, 4));
        EXPECT_GE(p, prev) << "k " << k;
        prev = p;
    }
    prev = -1.0;
    for (int wbits : {2, 4, 8}) {
        const double p =
            model.predictMs(requestOf(256, 512, 256, wbits));
        EXPECT_GE(p, prev) << "wbits " << wbits;
        prev = p;
    }
    prev = -1.0;
    for (uint64_t samples : {8u, 32u, 96u, 256u}) {
        const double p = model.predictMs(
            requestOf(1024, 2048, 512, 4, false, samples));
        EXPECT_GE(p, prev) << "samples " << samples;
        prev = p;
    }
}

TEST(CostModel_, PredictionMonotoneInLayerCount)
{
    // A request sequence's predicted cost is the sum of per-layer
    // predictions; appending a layer must strictly grow it (every
    // prediction includes the positive per-request base cost).
    const CostModel model = CostModel::builtin();
    const std::vector<ServiceRequest> layers = {
        requestOf(128, 256, 128, 4), requestOf(256, 512, 256, 8),
        requestOf(512, 1024, 512, 2)};
    double cum = 0.0;
    for (const ServiceRequest &r : layers) {
        const double p = model.predictMs(r);
        EXPECT_GT(p, 0.0);
        EXPECT_GT(cum + p, cum);
        cum += p;
    }
}

TEST(CostModel_, CacheHitPredictionNeverExceedsMiss)
{
    const CostModel model = CostModel::builtin();
    for (const ServiceRequest &r :
         costCalibrationBattery(7, /*quick=*/false)) {
        const double hit = model.predictMsAt(r, 0.0);
        const double miss = model.predictMsAt(r, 1.0);
        EXPECT_LE(hit, miss);
        EXPECT_GE(hit, 0.0);
    }
}

TEST(CostModel_, ResidentPlaneDropsOnlyTheSynthesisTerm)
{
    const CostModel model = CostModel::builtin();
    for (const ServiceRequest &r :
         costCalibrationBattery(7, /*quick=*/false)) {
        for (double miss : {0.0, 1.0}) {
            const CostFeatures cold = costFeaturesOf(r, miss);
            CostFeatures want = cold;
            want.f[2] = 0.0;
            EXPECT_EQ(costFeaturesOf(r, miss, true).f, want.f);
            EXPECT_LE(model.predictMsAt(r, miss, true),
                      model.predictMsAt(r, miss));
        }
    }
}

TEST(CostModel_, DegenerateLayerStillPredictsFiniteCost)
{
    const CostModel model = CostModel::builtin();
    const double p = model.predictMs(requestOf(128, 256, 0, 4));
    EXPECT_GE(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
}

// ---- calibration round-trip ---------------------------------------------

/** Synthetic battery samples from known ground-truth coefficients. */
std::vector<CostModel::Sample>
syntheticSamples(const std::array<double, CostFeatures::kCount> &truth,
                 double jitter)
{
    std::vector<CostModel::Sample> samples;
    uint64_t lcg = 12345;
    for (const ServiceRequest &r : costCalibrationBattery(3, false)) {
        for (double miss : {0.0, 1.0}) {
            CostModel::Sample s;
            s.features = costFeaturesOf(r, miss);
            double ns = 0.0;
            for (size_t i = 0; i < CostFeatures::kCount; ++i)
                ns += truth[i] * s.features.f[i];
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const double u =
                static_cast<double>((lcg >> 33) & 0xffff) / 65535.0;
            s.measuredNs = ns * (1.0 + jitter * (2.0 * u - 1.0));
            samples.push_back(s);
        }
    }
    return samples;
}

TEST(CostModel_, FitSaveLoadRoundTripIsBitIdentical)
{
    const std::array<double, CostFeatures::kCount> truth = {
        50000.0, 12000.0, 1.5, 3000.0, 40000.0};
    CostModel fitted;
    CostModel::FitReport report;
    ASSERT_TRUE(fitted.fit(syntheticSamples(truth, 0.05), &report));
    EXPECT_GT(report.samples, 0u);

    const std::string path =
        ::testing::TempDir() + "cost_model_roundtrip.txt";
    ASSERT_TRUE(fitted.saveFile(path));
    CostModel loaded;
    std::string err;
    ASSERT_TRUE(loaded.loadFile(path, &err)) << err;
    std::remove(path.c_str());

    // %.17g round-trips doubles exactly: every coefficient and every
    // prediction must be bit-identical, not merely close.
    for (size_t i = 0; i < CostFeatures::kCount; ++i)
        EXPECT_EQ(loaded.coeffs()[i], fitted.coeffs()[i]) << i;
    EXPECT_EQ(loaded.assumedMissProb(), fitted.assumedMissProb());
    for (const ServiceRequest &r : costCalibrationBattery(3, true)) {
        EXPECT_EQ(loaded.predictMs(r), fitted.predictMs(r));
        EXPECT_EQ(loaded.predictMsAt(r, 1.0),
                  fitted.predictMsAt(r, 1.0));
    }
}

// ---- strict file rejection ----------------------------------------------

TEST(CostModel_, CorruptOrTruncatedFileRejectedWholesale)
{
    CostModel fitted;
    const std::array<double, CostFeatures::kCount> truth = {
        50000.0, 12000.0, 1.5, 3000.0, 40000.0};
    ASSERT_TRUE(fitted.fit(syntheticSamples(truth, 0.0)));
    const std::string path =
        ::testing::TempDir() + "cost_model_corrupt.txt";
    ASSERT_TRUE(fitted.saveFile(path));
    const std::string good = readAll(path);
    ASSERT_FALSE(good.empty());

    const CostModel pristine = CostModel::builtin();
    const ServiceRequest probe = requestOf(256, 512, 256, 4);

    auto expectRejected = [&](const std::string &body,
                              const char *what) {
        writeAll(path, body);
        CostModel model = CostModel::builtin();
        std::string err;
        EXPECT_FALSE(model.loadFile(path, &err)) << what;
        EXPECT_FALSE(err.empty()) << what;
        // Wholesale: a failed load leaves the model untouched.
        EXPECT_EQ(model.predictMs(probe), pristine.predictMs(probe))
            << what;
    };

    expectRejected("", "empty file");
    expectRejected(good.substr(0, good.size() / 2),
                   "truncated mid-file");
    expectRejected(good.substr(0, good.rfind("checksum")),
                   "checksum line missing");
    {
        // Flip one byte inside the first coefficient line: both the
        // strict line parse and the checksum must catch it.
        std::string flipped = good;
        const size_t pos = flipped.find('\n') + 1;
        ASSERT_LT(pos, flipped.size());
        flipped[pos] = flipped[pos] == 'x' ? 'y' : 'x';
        expectRejected(flipped, "coefficient byte-flip");
    }
    {
        std::string bad_sum = good;
        const size_t pos = bad_sum.rfind("checksum ") + 9;
        bad_sum[pos] = bad_sum[pos] == '0' ? '1' : '0';
        expectRejected(bad_sum, "checksum mismatch");
    }
    {
        std::string wrong_version = good;
        wrong_version.replace(0, wrong_version.find('\n'),
                              "ta-cost-model v999");
        expectRejected(wrong_version, "unknown version");
    }
    expectRejected("ta-cost-model v1\n", "header only");

    std::remove(path.c_str());
    CostModel missing;
    std::string err;
    EXPECT_FALSE(missing.loadFile(path, &err));
    EXPECT_FALSE(err.empty());
}

// ---- pinned prediction-error tolerance ----------------------------------

TEST(CostModel_, FitRecoversSyntheticFixtureWithinTolerance)
{
    const std::array<double, CostFeatures::kCount> truth = {
        50000.0, 12000.0, 1.5, 3000.0, 40000.0};

    // Noise-free fixture: the fit must reproduce the generating model
    // almost exactly (pinned at 0.1% relative error).
    CostModel exact;
    CostModel::FitReport exact_report;
    ASSERT_TRUE(exact.fit(syntheticSamples(truth, 0.0),
                          &exact_report));
    EXPECT_LE(exact_report.errP99, 1e-3);

    // +-5% multiplicative jitter: relative-least-squares keeps the
    // p99 relative error within 3x the jitter bound.
    CostModel noisy;
    CostModel::FitReport noisy_report;
    ASSERT_TRUE(noisy.fit(syntheticSamples(truth, 0.05),
                          &noisy_report));
    EXPECT_LE(noisy_report.errP50, 0.05);
    EXPECT_LE(noisy_report.errP99, 0.15);

    // Coefficients stay nonnegative under noise (the monotonicity
    // guarantee is structural, not statistical).
    for (double c : noisy.coeffs())
        EXPECT_GE(c, 0.0);
}

TEST(CostModel_, FitRejectsDegenerateInput)
{
    CostModel model;
    EXPECT_FALSE(model.fit({}));
    // All-zero measurements are degenerate too: the relative-error
    // weighting has nothing to anchor on.
    std::vector<CostModel::Sample> zeros(4);
    EXPECT_FALSE(model.fit(zeros));
}

} // namespace
} // namespace ta
