/**
 * @file
 * Workload suite_llama: the FC (4-bit) and attention (8-bit) suites of
 * all seven LLaMA models, run in process as the runShape calls that
 * runSuite makes at batch 1, one fresh accelerator and base seed per
 * pass. No service layer runs, so synthesis, quantization, slicing and
 * the engine share the time.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "perfbench.h"
#include "quant/bitslice.h"
#include "quant/quantizer.h"
#include "workloads/generators.h"
#include "workloads/llama.h"
#include "workloads/suite_runner.h"

namespace perfbench {

namespace {

constexpr int kFcBits = 4;
constexpr int kAttentionBits = 8;
/** Layers per second on the reference host (sizes a run). */
constexpr double kNominalLayersPerS = 20;

/** One runShape call of a pass. */
struct LayerOp
{
    ta::GemmShape shape;
    int wbits = 0;
    uint64_t seed = 0;
};

/** Identity of the representative tensor runShape synthesizes. */
using TensorKey = std::tuple<size_t, size_t, int, uint64_t>;

TensorKey
tensorKey(const LayerOp &op)
{
    return {std::min<size_t>(op.shape.n, ta::kDefaultReprRows),
            std::min<size_t>(op.shape.k, ta::kDefaultReprCols), op.wbits,
            op.seed};
}

/** The layers of one pass: every model's FC suite, then its attention
 *  suite, each with runSuite's layerSeed(base, i) rule. */
std::vector<LayerOp>
passOps(uint64_t base)
{
    std::vector<LayerOp> ops;
    for (const ta::LlamaConfig &cfg : ta::allLlamaModels()) {
        const ta::WorkloadSuite fc = ta::llamaFcLayers(cfg);
        for (size_t i = 0; i < fc.layers.size(); ++i)
            ops.push_back({fc.layers[i].shape, kFcBits,
                           ta::layerSeed(base, i)});
        const ta::WorkloadSuite attn = ta::llamaAttentionLayers(cfg);
        for (size_t i = 0; i < attn.layers.size(); ++i)
            ops.push_back({attn.layers[i].shape, kAttentionBits,
                           ta::layerSeed(base, i)});
    }
    return ops;
}

/** Per-layer stage timings of the traced phase. */
struct StageTotals
{
    double synthS = 0, quantizeS = 0, sliceS = 0, runLayerS = 0;
    uint64_t subTiles = 0;
    uint64_t layers = 0;
    uint64_t lookups = 0, hits = 0;
    double busyS = 0;
};

/** What the split stages of one layer produced, for the checks. */
struct Split
{
    double density = 0;
    bool sliceOk = true;
};

struct Phase
{
    std::vector<double> latMs;
    double timedS = 0; ///< sum of the timed runShape calls
    StageTotals stages;
};

class SuiteLlama
{
  public:
    explicit SuiteLlama(const Options &opt)
        : opt_(opt), ledger_("suite_llama")
    {
        cfg_.threads = opt.nproc;
    }

    Result
    run()
    {
        Result res;
        std::vector<double> setup;
        for (int rep = 0; rep < 3; ++rep)
            setup.push_back(setUpOnce(mixSeed(opt_.seed, 100 + rep)));

        Phase plain = timedPhase(false);
        res.endToEnd = endToEndMetrics(setup, plain.latMs, plain.timedS,
                                       selfPeakRssMb());
        if (opt_.trace) {
            Phase traced = timedPhase(true);
            res.tracedEndToEnd = endToEndMetrics(
                setup, traced.latMs, traced.timedS, selfPeakRssMb());
            const StageTotals &s = traced.stages;
            const double layers = static_cast<double>(s.layers);
            res.perLayer = {
                {"workloads.synth_ms", "ms", 1e3 * s.synthS / layers},
                {"quant.quantize_ms", "ms", 1e3 * s.quantizeS / layers},
                {"quant.slice_ms", "ms", 1e3 * s.sliceS / layers},
                {"core.run_layer_ms", "ms", 1e3 * s.runLayerS / layers},
                {"core.sub_tiles", "count", s.subTiles / layers},
                {"core.stage_coverage", "ratio",
                 (s.synthS + s.quantizeS + s.sliceS + s.runLayerS) /
                     traced.timedS},
                {"exec.plan_lookups", "count", s.lookups / layers},
                {"exec.plan_hit_rate", "ratio",
                 s.lookups == 0 ? 0.0
                                : static_cast<double>(s.hits) / s.lookups},
                {"exec.busy_share", "ratio",
                 s.busyS / (cfg_.threads * traced.timedS)},
            };
        }
        checkTensors();
        res.attempted = ledger_.attempted();
        res.failed = ledger_.failed();
        return res;
    }

  private:
    /** Suite and accelerator construction plus a warm-up block (one
     *  model's FC and attention layers), discarded. */
    double
    setUpOnce(uint64_t base)
    {
        const double t0 = now();
        const std::vector<LayerOp> ops = passOps(base);
        ta::TransArrayAccelerator acc(cfg_);
        const size_t perModel = ops.size() / ta::allLlamaModels().size();
        for (size_t i = 0; i < perModel; ++i)
            acc.runShape(ops[i].shape, ops[i].wbits, ops[i].seed);
        return now() - t0;
    }

    /**
     * Whole passes, as many as timedRounds() gives. Traced passes also
     * split every layer into its public calls on a shadow accelerator
     * that sees the same layer sequence, so its plan cache matches.
     */
    Phase
    timedPhase(bool traced)
    {
        Phase ph;
        const size_t layers = passOps(0).size();
        const size_t passes =
            timedRounds(opt_.seconds, kNominalLayersPerS, layers);
        for (uint64_t pass = 0; pass < passes; ++pass) {
            const std::vector<LayerOp> ops =
                passOps(mixSeed(opt_.seed, pass));
            ta::TransArrayAccelerator acc(cfg_);
            std::unique_ptr<ta::TransArrayAccelerator> shadow;
            if (traced)
                shadow = std::make_unique<ta::TransArrayAccelerator>(cfg_);
            const ta::PlanCache::Counters c0 = acc.planCacheCounters();
            const uint64_t busy0 = busyNanos(acc);
            std::set<TensorKey> seen;
            size_t repeated = 0;
            for (const LayerOp &op : ops) {
                Split split;
                if (traced)
                    split = splitStages(*shadow, op, ph.stages);
                const double t0 = now();
                const ta::LayerRun run =
                    acc.runShape(op.shape, op.wbits, op.seed);
                const double dt = now() - t0;
                ph.timedS += dt;
                ph.latMs.push_back(1e3 * dt);
                const uint64_t id = ledger_.add();
                ta::LayerRun checked = run;
                if (opt_.tamper == "closed" && id == 0)
                    ++checked.dramBytes;
                std::string why;
                if (!checkClosedForm(op.shape, op.wbits, cfg_.actBits,
                                     numbersOf(checked), &why))
                    ledger_.fail(id, why);
                if (traced) {
                    ph.stages.subTiles +=
                        run.exec.get("exec.sampledSubTiles");
                    if (!split.sliceOk ||
                        split.density != run.sparsity.totalDensity())
                        ledger_.fail(id, "split stages disagree with "
                                         "runShape, or the tensor slice "
                                         "with the full tensor");
                }
                repeated += seen.count(tensorKey(op));
                seen.insert(tensorKey(op));
                tensors_.emplace(tensorKey(op), id);
            }
            if (traced) {
                const ta::PlanCache::Counters c1 = acc.planCacheCounters();
                ph.stages.lookups +=
                    c1.hits + c1.misses - c0.hits - c0.misses;
                ph.stages.hits += c1.hits - c0.hits;
                ph.stages.busyS += (busyNanos(acc) - busy0) / 1e9;
            } else if (pass == 0) {
                std::printf("suite_llama: %zu layers per pass, %zu repeat "
                            "an earlier tensor of the pass (%.1f%%)\n",
                            ops.size(), repeated,
                            100.0 * repeated / ops.size());
            }
        }
        return ph;
    }

    /** runShape split into its public calls, each timed. */
    Split
    splitStages(const ta::TransArrayAccelerator &shadow, const LayerOp &op,
                StageTotals &s)
    {
        const auto [rows, cols, bits, seed] = tensorKey(op);
        double t = now();
        const ta::MatF g = ta::gaussianWeights(rows, cols, seed);
        s.synthS += now() - t;
        t = now();
        const ta::QuantResult q = ta::GroupQuantizer(bits, 128).quantize(g);
        s.quantizeS += now() - t;
        t = now();
        const ta::SlicedMatrix sliced = ta::bitSlice(q.values, bits);
        s.sliceS += now() - t;
        t = now();
        const ta::LayerRun lr = shadow.runLayer(sliced, op.shape.m);
        s.runLayerS += now() - t;
        ++s.layers;
        Split split;
        split.density = lr.sparsity.totalDensity();
        if (opt_.tamper == "identity" && s.layers == 1)
            split.density += 1;
        // The cheap slice the losslessness check synthesizes must be
        // the real tensor's leading sub-tile.
        split.sliceOk =
            subTileSlice(q.values, bits) == tensorSlice(cols, bits, seed);
        return split;
    }

    /** Losslessness on a sub-tile of every distinct tensor built; a
     *  failure fails the first operation that built the tensor. */
    void
    checkTensors()
    {
        const ta::TransitiveGemmEngine engine(losslessEngineConfig());
        bool first = true;
        for (const auto &[key, id] : tensors_) {
            const auto [rows, cols, bits, seed] = key;
            std::string why;
            const bool tamper = opt_.tamper == "lossless" && first;
            first = false;
            if (!checkLossless(engine, tensorSlice(cols, bits, seed), bits,
                               seed, tamper, &why))
                ledger_.fail(id, why);
        }
    }

    static uint64_t
    busyNanos(const ta::TransArrayAccelerator &acc)
    {
        uint64_t sum = 0;
        for (uint64_t ns : acc.shardBusyNanos())
            sum += ns;
        return sum;
    }

    const Options &opt_;
    ta::TransArrayAccelerator::Config cfg_;
    Ledger ledger_;
    /** Distinct tensors built, with the first operation building each. */
    std::map<TensorKey, uint64_t> tensors_;
};

} // namespace

Result
runSuiteLlama(const Options &opt)
{
    return SuiteLlama(opt).run();
}

} // namespace perfbench
