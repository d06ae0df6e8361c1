/**
 * @file
 * ta_calibrate: offline calibration of the service cost model
 * (docs/SERVICE.md). Runs the deterministic calibration battery
 * serially — each request once against a cold plan cache and again
 * against a warm one — fits the nonnegative linear cost model to the
 * measured host times, and writes the versioned coefficients file that
 * `ta_serve --cost-model` and `ta_loadgen --slo` consume.
 *
 * Usage:
 *   ta_calibrate [--out FILE] [--seed N] [--reps N] [--threads N]
 *                [--assumed-hit-rate X] [--quick] [--json-out]
 *   ta_calibrate --predict FILE [--seed N] [--quick]
 *   ta_calibrate --self-check
 *
 * --predict loads a coefficients file and prints the battery's
 * predictions — a pure function of (file, seed), so two invocations
 * must emit identical bytes (CI's calibration determinism check).
 * --self-check exercises fit -> save -> load -> identical predictions
 * on synthetic samples without any timing, for ctest.
 *
 * Measurements go to the fit; all progress text goes to stderr so
 * stdout stays machine-readable (--predict) or silent.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness/bench_json.h"
#include "kernels/kernel_table.h"
#include "service/cost_model.h"

using namespace ta;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--out FILE] [--seed N] [--reps N] [--threads N]\n"
        "          [--assumed-hit-rate X] [--quick] [--json-out]\n"
        "       %s --predict FILE [--seed N] [--quick]\n"
        "       %s --self-check\n"
        "  --out              coefficients file to write (default\n"
        "                     cost_model.txt)\n"
        "  --seed             battery seed (default 1)\n"
        "  --reps             timing repetitions per point (default 3,\n"
        "                     median)\n"
        "  --threads          executor width while measuring\n"
        "                     (default 1 — predictions model the\n"
        "                     serial oracle)\n"
        "  --assumed-hit-rate steady-state plan-cache hit rate the\n"
        "                     served predictions assume, 0..1\n"
        "                     (default 0.9)\n"
        "  --quick            small battery for CI smoke\n"
        "  --json-out         also write BENCH_calibration.json\n"
        "  --predict          no timing: load FILE and print the\n"
        "                     battery's deterministic predictions\n"
        "  --self-check       fit/save/load round-trip on synthetic\n"
        "                     samples; exit 0 iff identical\n",
        argv0, argv0, argv0);
}

double
medianNs(std::vector<double> &v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Time one runShape call on `acc` in nanoseconds. */
double
timeRunNs(const TransArrayAccelerator &acc, const ServiceRequest &req)
{
    const auto t0 = std::chrono::steady_clock::now();
    acc.runShape(req.shape, req.wbits, req.seed);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

int
runPredict(const std::string &path, uint64_t seed, bool quick)
{
    CostModel model;
    std::string err;
    if (!model.loadFile(path, &err)) {
        std::fprintf(stderr, "ta_calibrate: %s\n", err.c_str());
        return 1;
    }
    // One line per battery point, fixed formatting: byte-identical
    // across invocations for a fixed (file, seed) — the determinism
    // contract CI diffs.
    const std::vector<ServiceRequest> battery =
        costCalibrationBattery(seed, quick);
    for (const ServiceRequest &req : battery) {
        std::printf(
            "%llu n=%zu k=%zu m=%zu wbits=%d static=%d samples=%zu "
            "predicted_cycles=%s predicted_ms=%s\n",
            static_cast<unsigned long long>(req.id), req.shape.n,
            req.shape.k, req.shape.m, req.wbits,
            req.useStatic ? 1 : 0, req.samples,
            formatDouble(
                model.predictCycles(costFeaturesOf(
                    req, model.assumedMissProb())))
                .c_str(),
            formatDouble(model.predictMs(req)).c_str());
    }
    return 0;
}

int
runSelfCheck()
{
    // Synthetic ground truth: a known nonnegative coefficient vector
    // plus deterministic multiplicative pseudo-noise. No clocks — the
    // check must pass identically everywhere.
    const std::array<double, CostFeatures::kCount> truth = {
        50000.0, 12000.0, 1.5, 3000.0, 40000.0};
    std::vector<CostModel::Sample> samples;
    const std::vector<ServiceRequest> battery =
        costCalibrationBattery(7, /*quick=*/false);
    uint64_t noise = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < battery.size(); ++i) {
        for (int miss = 0; miss <= 1; ++miss) {
            CostModel::Sample s;
            s.features = costFeaturesOf(battery[i],
                                        miss == 0 ? 0.0 : 1.0);
            double y = 0.0;
            for (size_t f = 0; f < CostFeatures::kCount; ++f)
                y += truth[f] * s.features.f[f];
            noise = noise * 6364136223846793005ull + 1442695040888963407ull;
            // +/- 5% deterministic jitter.
            const double jitter =
                1.0 + 0.05 * (static_cast<double>(noise >> 11) /
                                  9007199254740992.0 * 2.0 -
                              1.0);
            s.measuredNs = y * jitter;
            samples.push_back(s);
        }
    }

    CostModel fitted;
    CostModel::FitReport report;
    if (!fitted.fit(samples, &report)) {
        std::fprintf(stderr, "self-check: fit failed\n");
        return 1;
    }
    const std::string tmp = "cost_model.selfcheck.tmp";
    if (!fitted.saveFile(tmp)) {
        std::fprintf(stderr, "self-check: save failed\n");
        return 1;
    }
    CostModel loaded;
    std::string err;
    if (!loaded.loadFile(tmp, &err)) {
        std::fprintf(stderr, "self-check: load failed: %s\n",
                     err.c_str());
        return 1;
    }
    std::remove(tmp.c_str());
    // Round-trip contract: %.17g save -> strict load -> predictions
    // bit-identical to the in-memory fit.
    for (const CostModel::Sample &s : samples) {
        if (fitted.predictCycles(s.features) !=
            loaded.predictCycles(s.features)) {
            std::fprintf(stderr,
                         "self-check: round-trip prediction drift\n");
            return 1;
        }
    }
    // And the fit itself must explain its own synthetic data well.
    if (report.errP99 > 0.15) {
        std::fprintf(stderr,
                     "self-check: fit error p99 %.3f exceeds 0.15\n",
                     report.errP99);
        return 1;
    }
    std::fprintf(stderr,
                 "self-check: ok (%zu samples, err p50/p90/p99 "
                 "%.3f/%.3f/%.3f)\n",
                 report.samples, report.errP50, report.errP90,
                 report.errP99);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "cost_model.txt";
    std::string predict_path;
    uint64_t seed = 1;
    int reps = 3;
    int threads = 1;
    double assumed_hit_rate = 0.9;
    bool quick = false;
    bool json_out = false;
    bool self_check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 2;
        }
        if (a == "--quick") {
            quick = true;
            continue;
        }
        if (a == "--json-out") {
            json_out = true;
            continue;
        }
        if (a == "--self-check") {
            self_check = true;
            continue;
        }
        const bool known = a == "--out" || a == "--seed" ||
                           a == "--reps" || a == "--threads" ||
                           a == "--assumed-hit-rate" ||
                           a == "--predict";
        if (!known) {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        const char *v = argv[++i];
        bool ok = true;
        if (a == "--out")
            out_path = v;
        else if (a == "--predict")
            predict_path = v;
        else if (a == "--seed")
            ok = parseU64Flag(a, v, 0, ~0ull, seed);
        else if (a == "--reps")
            ok = parseIntFlag(a, v, 1, 99, reps);
        else if (a == "--threads")
            ok = parseIntFlag(a, v, 1, 256, threads);
        else if (a == "--assumed-hit-rate") {
            char *end = nullptr;
            assumed_hit_rate = std::strtod(v, &end);
            if (end == nullptr || *end != '\0' ||
                assumed_hit_rate < 0.0 || assumed_hit_rate > 1.0) {
                std::fprintf(stderr,
                             "--assumed-hit-rate: expected a value "
                             "in [0, 1], got '%s'\n",
                             v);
                ok = false;
            }
        }
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }

    if (self_check)
        return runSelfCheck();
    if (!predict_path.empty())
        return runPredict(predict_path, seed, quick);

    const std::vector<ServiceRequest> battery =
        costCalibrationBattery(seed, quick);
    std::fprintf(stderr,
                 "ta_calibrate: %zu battery points (%s), %d rep(s), "
                 "%s kernels\n",
                 battery.size(), quick ? "quick" : "full", reps,
                 kernelArch());

    std::vector<CostModel::Sample> samples;
    const auto wall0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < battery.size(); ++i) {
        const ServiceRequest &req = battery[i];
        // A fresh engine per point: the cold run measures plan
        // construction and weight synthesis (miss features), the
        // following warm runs hit the engine's own plan cache and
        // weight memo (hit features, plane resident).
        TransArrayAccelerator acc(
            engineConfig(engineKeyOf(req), threads));
        CostModel::Sample cold;
        cold.features = costFeaturesOf(req, 1.0);
        cold.measuredNs = timeRunNs(acc, req);
        samples.push_back(cold);

        std::vector<double> warm_ns;
        for (int r = 0; r < reps; ++r)
            warm_ns.push_back(timeRunNs(acc, req));
        CostModel::Sample warm;
        warm.features = costFeaturesOf(req, 0.0, /*plane_resident=*/true);
        warm.measuredNs = medianNs(warm_ns);
        samples.push_back(warm);

        std::fprintf(stderr,
                     "  [%zu/%zu] n=%zu k=%zu m=%zu wbits=%d "
                     "static=%d cold %.2f ms warm %.2f ms\n",
                     i + 1, battery.size(), req.shape.n, req.shape.k,
                     req.shape.m, req.wbits, req.useStatic ? 1 : 0,
                     cold.measuredNs / 1e6, warm.measuredNs / 1e6);
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    CostModel model;
    CostModel::FitReport report;
    if (!model.fit(samples, &report)) {
        std::fprintf(stderr, "ta_calibrate: fit failed (degenerate "
                             "battery)\n");
        return 1;
    }
    model.setAssumedMissProb(1.0 - assumed_hit_rate);
    if (!model.saveFile(out_path)) {
        std::fprintf(stderr, "ta_calibrate: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }

    static const char *kNames[CostFeatures::kCount] = {
        "base", "sampled_subtile", "sliced_bit", "static_subtile",
        "miss_subtile"};
    for (size_t i = 0; i < CostFeatures::kCount; ++i)
        std::fprintf(stderr, "  coeff %-16s %.6g ns\n", kNames[i],
                     model.coeffs()[i]);
    std::fprintf(stderr,
                 "ta_calibrate: fit over %zu samples, relative error "
                 "p50/p90/p99 %.3f/%.3f/%.3f, wrote %s (%.0f ms)\n",
                 report.samples, report.errP50, report.errP90,
                 report.errP99, out_path.c_str(), wall_ms);

    if (json_out) {
        BenchJson json("calibration");
        json.add("benchmark", std::string("calibration"));
        json.add("schema_version", static_cast<uint64_t>(2));
        json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
        json.add("battery_points",
                 static_cast<uint64_t>(battery.size()));
        json.add("fit_samples", static_cast<uint64_t>(report.samples));
        json.add("err_p50", report.errP50);
        json.add("err_p90", report.errP90);
        json.add("err_p99", report.errP99);
        json.add("assumed_hit_rate", assumed_hit_rate);
        for (size_t i = 0; i < CostFeatures::kCount; ++i)
            json.add(std::string("coeff_") + kNames[i],
                     model.coeffs()[i]);
        json.add("wall_ms", wall_ms);
        json.add("kernel_arch", std::string(kernelArch()));
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "ta_calibrate: wrote %s\n",
                         path.c_str());
    }
    return 0;
}
