/**
 * @file
 * Calibrated service-time cost model for the scheduler's planning
 * layer. The model predicts the host cost of a "run" request in
 * cost-cycles (1 cost-cycle == 1 nanosecond of calibrated single-window
 * host execution) from the request's analytic layer geometry — the same
 * arithmetic `TransArrayAccelerator::layerGeometry` applies to the
 * synthesized representative tensor, so a prediction never has to touch
 * an engine, a cache, or a clock. Predictions are pure functions of
 * (request, coefficients file, plane-resident flag): byte-identical
 * across runs. The caller supplies the flag (whether the weight memo
 * holds the request's plane); everything else is geometry.
 *
 * Features (all derived without synthesizing the tensor):
 *   f0 = 1                      per-request fixed overhead
 *   f1 = sampled sub-tiles      scoreboard passes actually simulated
 *   f2 = sliced bit area        nr * wbits * kr, tensor synthesis +
 *                               bit-slicing work (0 when the plane is
 *                               already in the engine's weight memo)
 *   f3 = static-calibration     sampled sub-tiles when the request
 *                               uses the static scoreboard, else 0
 *   f4 = missProb * sampled     plan-construction work on cache misses
 *
 * The fit (fitModel) clamps coefficients to be nonnegative, which makes
 * the planner's required monotonicity properties — cost monotone in
 * layer count and tile area, cache-hit prediction <= cache-miss
 * prediction — hold by construction, not by luck of the regression.
 *
 * Coefficients persist in a versioned, checksummed text file
 * (docs/BENCH_SCHEMA.md). Loading is all-or-nothing: any truncation,
 * corruption, unknown version or checksum mismatch rejects the whole
 * file and leaves the model unchanged.
 */

#ifndef TA_SERVICE_COST_MODEL_H
#define TA_SERVICE_COST_MODEL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace ta {

/** Feature vector of one request at a given plan-cache miss
 *  probability; the dot product with CostModel coefficients is the
 *  predicted cost in cost-cycles (ns). */
struct CostFeatures
{
    static constexpr size_t kCount = 5;
    std::array<double, kCount> f{}; // [base, sampled, slicedBits,
                                    //  staticCal, missSampled]
};

/**
 * Analytic geometry features of `req`. `miss_prob` in [0, 1] is the
 * assumed plan-cache miss probability (the calibrated steady-state
 * value at serve time; 1.0 for a cold cache, 0.0 for a fully warm
 * one). Mirrors layerGeometry: representative dims capped at
 * (kDefaultReprRows x kDefaultReprCols), sub-tiles of
 * maxTransRows x tbits over the sliced nr*wbits x kr bit matrix,
 * stride-sampled down to the request's sample limit.
 *
 * `plane_resident` says the serving engine's weight memo already holds
 * the request's representative plane: the engine then synthesizes
 * nothing, so the synthesis feature (f2) is 0.
 */
CostFeatures costFeaturesOf(const ServiceRequest &req, double miss_prob,
                            bool plane_resident = false);

class CostModel
{
  public:
    /** One calibration observation: features -> measured host ns. */
    struct Sample
    {
        CostFeatures features;
        double measuredNs = 0.0;
    };

    /** Relative-error percentiles of a fit, over its own samples. */
    struct FitReport
    {
        size_t samples = 0;
        double errP50 = 0.0;
        double errP90 = 0.0;
        double errP99 = 0.0;
    };

    /** Conservative built-in coefficients used when no file is given;
     *  calibrated once on the reference container so planning works
     *  out of the box (docs/SERVICE.md). */
    static CostModel builtin();

    /** Predicted cost in cost-cycles (ns) for a feature vector. */
    double predictCycles(const CostFeatures &features) const;

    /** Predicted service milliseconds for one request, using the
     *  model's calibrated steady-state miss probability.
     *  `plane_resident` as in costFeaturesOf. */
    double predictMs(const ServiceRequest &req,
                     bool plane_resident = false) const;

    /** Same, at an explicit miss probability. */
    double predictMsAt(const ServiceRequest &req, double miss_prob,
                       bool plane_resident = false) const;

    /**
     * Nonnegative least-squares fit over `samples` (normal equations +
     * active-set clamping). Returns false when samples are empty or
     * degenerate; on success replaces the coefficients and fills
     * `report` (optional).
     */
    bool fit(const std::vector<Sample> &samples,
             FitReport *report = nullptr);

    /** Write the versioned coefficients file (atomicity not required:
     *  the loader rejects partial writes wholesale). */
    bool saveFile(const std::string &path) const;

    /**
     * Strict load: version line, every coefficient, the calibration
     * metadata and the trailing FNV-1a checksum must all parse and
     * match, or the load fails and the model keeps its previous state.
     */
    bool loadFile(const std::string &path, std::string *err = nullptr);

    const std::array<double, CostFeatures::kCount> &coeffs() const
    {
        return coeffs_;
    }
    double assumedMissProb() const { return assumedMissProb_; }
    void setAssumedMissProb(double p);
    const FitReport &fitReport() const { return report_; }

  private:
    /** Cost-cycles per feature unit; nonnegative by construction. */
    std::array<double, CostFeatures::kCount> coeffs_{};
    /** Steady-state plan-cache miss probability assumed at serve
     *  time; calibrated (from the warm/cold battery split), never read
     *  from live cache state — predictions must stay pure. */
    double assumedMissProb_ = 0.1;
    FitReport report_;
};

/**
 * The deterministic calibration battery: a seeded spread of request
 * geometries (shapes x wbits x static x samples) covering the feature
 * space. `quick` shrinks the grid for CI smoke runs.
 */
std::vector<ServiceRequest> costCalibrationBattery(uint64_t seed,
                                                   bool quick);

} // namespace ta

#endif // TA_SERVICE_COST_MODEL_H
