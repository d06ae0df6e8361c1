/**
 * @file
 * Workloads serve_synth and serve_catalog: a freshly spawned ta_serve
 * per phase, driven over a socketpair by a closed loop of client
 * threads in this process. Every response is checked against the
 * closed forms, against the standalone serial path (engineConfig +
 * runShape + serializeResponse) and, through the tensor each request
 * names, against a plain GEMM.
 */

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "perfbench.h"
#include "service/protocol.h"
#include "storage/buffer_manager.h"
#include "workloads/llama.h"
#include "workloads/suite_runner.h"

namespace perfbench {

namespace {

/** Ids at and above this are control ops (ping, stats, shutdown). */
constexpr uint64_t kControlIdBase = 1ull << 48;
/** serve_catalog's residency bound, below the catalog's 2760 pages. */
constexpr size_t kCatalogBufferPages = 2048;
/**
 * serve_catalog requests per round of 100 that ask for the
 * accelerator's default of 512 sampled sub-tiles; the rest keep the
 * service's default of 96. At 10 in 100, the 95th latency percentile
 * falls among these heavier requests.
 */
constexpr size_t kCatalogHeavyPerRound = 10;
constexpr size_t kCatalogHeavySamples = 512;
/** Set-up repetitions per phase: a spawn and first reply take
 *  milliseconds. */
constexpr int kSetupReps = 9;

/** What distinguishes the two serve workloads. */
struct ServeSpec
{
    std::string name;
    int clients = 1;
    size_t roundSize = 0;
    /** Requests per second on the reference host (sizes a run). */
    double nominalOpsPerS = 0;
    /** ta_serve flags besides --catalog and --trace-out. */
    std::vector<std::string> serverFlags;
    /** Catalog to pack into a fresh directory once per run, before
     *  any set-up is timed. */
    std::function<bool(const std::string &dir, std::string *err)>
        packCatalog;
    /** The requests of round `round` (ids are assigned by the runner). */
    std::function<std::vector<ta::ServiceRequest>(uint64_t round)>
        makeRound;
};

using Stats = std::map<std::string, double>;

/** One spawned server with its protocol connection. */
struct Server
{
    ChildProcess proc;
    std::unique_ptr<Connection> conn;
};

/** Everything one server phase produced. */
struct ServePhase
{
    std::vector<ta::ServiceRequest> reqs; ///< warm-up then timed
    std::vector<std::string> replies;
    size_t timedBegin = 0;               ///< first timed index in reqs
    uint64_t firstOp = 0;                ///< ledger index of reqs[0]
    std::vector<double> latMs;           ///< timed requests only
    double timedS = 0;                   ///< sum of the timed rounds
    std::vector<double> setupS;
    double rssMb = 0;
    Stats statsDelta;                     ///< over the timed rounds
    std::string traceFile;
};

/** Distinct simulation a request asks for (its response's identity
 *  key): engine, shape, weight width and seed. */
using RunKey = std::tuple<ta::EngineKey, uint64_t, uint64_t, uint64_t, int,
                          uint64_t>;

RunKey
runKeyOf(const ta::ServiceRequest &r)
{
    return {ta::engineKeyOf(r), r.shape.n, r.shape.k, r.shape.m, r.wbits,
            r.seed};
}

bool
parseFlat(const std::string &line, Stats *out)
{
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string err;
    if (!ta::parseJsonFlat(line, kvs, err))
        return false;
    for (const auto &[k, v] : kvs)
        (*out)[k] = std::strtod(v.c_str(), nullptr);
    return true;
}

class ServeBench
{
  public:
    ServeBench(const Options &opt, ServeSpec spec)
        : opt_(opt), spec_(std::move(spec)), ledger_(spec_.name)
    {}

    Result
    run()
    {
        Result res;
        if (spec_.packCatalog) {
            catalogDir_ = path("catalog");
            if (::mkdir(catalogDir_.c_str(), 0755) != 0 ||
                !spec_.packCatalog(catalogDir_, &err_))
                return fatal();
        }
        ServePhase plain;
        if (!runPhase(false, plain))
            return fatal();
        res.endToEnd = endToEndMetrics(plain.setupS, plain.latMs,
                                       plain.timedS, plain.rssMb);
        ServePhase traced;
        if (opt_.trace) {
            if (!runPhase(true, traced))
                return fatal();
            res.tracedEndToEnd =
                endToEndMetrics(traced.setupS, traced.latMs, traced.timedS,
                                traced.rssMb);
        }
        verify(plain);
        if (opt_.trace)
            verify(traced);
        if (opt_.trace && !perLayer(traced, res.perLayer))
            return fatal();
        res.attempted = ledger_.attempted();
        res.failed = ledger_.failed();
        return res;
    }

  private:
    Result
    fatal()
    {
        std::fprintf(stderr, "%s: %s\n", spec_.name.c_str(), err_.c_str());
        std::exit(1);
    }

    std::string
    path(const std::string &leaf) const
    {
        return opt_.workDir + "/" + spec_.name + "." + leaf;
    }

    // ---- server lifecycle ------------------------------------------

    bool
    start(Server &s, const ServePhase &ph, bool traced)
    {
        std::vector<std::string> argv = {opt_.binDir + "/ta_serve"};
        argv.insert(argv.end(), spec_.serverFlags.begin(),
                    spec_.serverFlags.end());
        if (!catalogDir_.empty()) {
            argv.push_back("--catalog");
            argv.push_back(catalogDir_);
        }
        if (traced) {
            argv.push_back("--trace-out");
            argv.push_back(ph.traceFile);
        }
        if (!s.proc.start(argv, true, path("serve.log"), &err_))
            return false;
        s.conn = std::make_unique<Connection>(s.proc.fd());
        std::string reply;
        if (!control(s, "ping", &reply) ||
            reply.find("\"pong\":1") == std::string::npos) {
            err_ = "ta_serve did not answer ping (see " +
                   path("serve.log") + ")";
            return false;
        }
        return true;
    }

    bool
    control(Server &s, const std::string &op, std::string *reply)
    {
        const uint64_t id = kControlIdBase + controlIds_++;
        const std::string line = "{\"id\":" + std::to_string(id) +
                                 ",\"op\":\"" + op + "\"}";
        double sent = 0, recv = 0;
        return s.conn->call(id, line, reply, &sent, &recv);
    }

    bool
    stop(Server &s, double *rssMb)
    {
        std::string reply;
        const bool acked = control(s, "shutdown", &reply);
        s.conn.reset();
        struct rusage ru {};
        if (!s.proc.wait(30, &ru) || !acked) {
            err_ = "ta_serve did not shut down cleanly";
            return false;
        }
        if (rssMb != nullptr)
            *rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return true;
    }

    bool
    stats(Server &s, Stats *out)
    {
        std::string reply;
        if (!control(s, "stats", &reply) || !parseFlat(reply, out)) {
            err_ = "stats op failed";
            return false;
        }
        return true;
    }

    // ---- phases ------------------------------------------------------

    /**
     * Set up kSetupReps times (spawn, catalog open if any, first
     * reply), keeping the last server; then a warm-up round and the
     * timed rounds timedRounds() gives.
     */
    bool
    runPhase(bool traced, ServePhase &ph)
    {
        const std::string tag = traced ? "traced" : "plain";
        ph.traceFile = path(tag + ".trace.json");
        Server server;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = now();
            if (!start(server, ph, traced))
                return false;
            ph.setupS.push_back(now() - t0);
            if (rep + 1 < kSetupReps && !stop(server, nullptr))
                return false;
        }

        runRound(*server.conn, spec_.makeRound(round_++), false, ph);
        ph.timedBegin = ph.reqs.size();
        Stats s0, s1;
        if (traced && !stats(server, &s0))
            return false;
        const size_t rounds = timedRounds(opt_.seconds, spec_.nominalOpsPerS,
                                          spec_.roundSize);
        for (size_t r = 0; r < rounds; ++r)
            runRound(*server.conn, spec_.makeRound(round_++), true, ph);
        if (traced) {
            if (!stats(server, &s1))
                return false;
            for (const auto &[k, v] : s1)
                ph.statsDelta[k] = v - s0[k];
        }
        return stop(server, &ph.rssMb);
    }

    /** One closed-loop round: `clients` threads each send their next
     *  request as soon as their previous reply arrives. */
    void
    runRound(Connection &conn, std::vector<ta::ServiceRequest> reqs,
             bool timed, ServePhase &ph)
    {
        for (ta::ServiceRequest &r : reqs) {
            r.id = ++requestIds_;
            // Only timed requests carry a trace id, so the span means
            // cover exactly the timed rounds.
            r.traceId = timed ? r.id : 0;
        }
        std::vector<std::string> replies(reqs.size());
        std::vector<double> lat(reqs.size());
        std::atomic<size_t> next{0};
        auto client = [&] {
            for (size_t i; (i = next++) < reqs.size();) {
                double sent = 0, recv = 0;
                if (!conn.call(reqs[i].id, ta::serializeRequest(reqs[i]),
                               &replies[i], &sent, &recv))
                    replies[i].clear(); // fails its checks
                lat[i] = 1e3 * (recv - sent);
            }
        };
        const double t0 = now();
        std::vector<std::thread> threads;
        for (int c = 0; c < spec_.clients; ++c)
            threads.emplace_back(client);
        for (std::thread &t : threads)
            t.join();
        const double wall = now() - t0;
        if (timed) {
            ph.timedS += wall;
            ph.latMs.insert(ph.latMs.end(), lat.begin(), lat.end());
        }
        ph.reqs.insert(ph.reqs.end(), reqs.begin(), reqs.end());
        ph.replies.insert(ph.replies.end(), replies.begin(), replies.end());
    }

    // ---- checks --------------------------------------------------------

    /**
     * The standalone serial path of every distinct simulation the
     * phase asked for, computed on `nproc` threads with one-thread
     * engines (results do not depend on either count).
     */
    void
    serialPath(const ServePhase &ph)
    {
        std::vector<const ta::ServiceRequest *> todo;
        for (const ta::ServiceRequest &r : ph.reqs)
            if (expected_.try_emplace(runKeyOf(r)).second)
                todo.push_back(&r);
        std::atomic<size_t> next{0};
        std::vector<ta::LayerRun> out(todo.size());
        auto worker = [&] {
            std::map<ta::EngineKey,
                     std::unique_ptr<ta::TransArrayAccelerator>>
                engines;
            for (size_t i; (i = next++) < todo.size();) {
                const ta::ServiceRequest &r = *todo[i];
                auto &acc = engines[ta::engineKeyOf(r)];
                if (!acc)
                    acc = std::make_unique<ta::TransArrayAccelerator>(
                        ta::engineConfig(ta::engineKeyOf(r), 1));
                out[i] = acc->runShape(r.shape, r.wbits, r.seed);
            }
        };
        std::vector<std::thread> threads;
        for (int t = 0; t < opt_.nproc; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
        for (size_t i = 0; i < todo.size(); ++i)
            expected_[runKeyOf(*todo[i])] = out[i];
    }

    void
    verify(ServePhase &ph)
    {
        serialPath(ph);
        ph.firstOp = ledger_.attempted();
        const ta::TransitiveGemmEngine engine(losslessEngineConfig());
        for (size_t i = 0; i < ph.reqs.size(); ++i) {
            const ta::ServiceRequest &r = ph.reqs[i];
            const uint64_t id = ledger_.add();
            std::string reply = ph.replies[i];
            const bool first = id == 0;
            Stats f;
            if (!parseFlat(reply, &f) || f["ok"] != 1) {
                ledger_.fail(id, "error or missing reply: " + reply);
                continue;
            }
            LayerNumbers got{static_cast<uint64_t>(f["cycles"]),
                             static_cast<uint64_t>(f["compute_cycles"]),
                             static_cast<uint64_t>(f["dram_cycles"]),
                             static_cast<uint64_t>(f["dram_bytes"]),
                             f["density"]};
            if (opt_.tamper == "closed" && first)
                ++got.dramBytes;
            std::string why;
            if (!checkClosedForm(r.shape, r.wbits, r.abits, got, &why))
                ledger_.fail(id, why);
            if (opt_.tamper == "identity" && first)
                reply.back() = ']';
            if (reply != ta::serializeResponse(r, expected_[runKeyOf(r)]))
                ledger_.fail(id, "reply differs from the serial path: " +
                                     reply);
            const auto tensor = std::make_tuple(
                std::min<uint64_t>(r.shape.k, ta::kDefaultReprCols), r.wbits,
                r.seed);
            if (!lossless_.emplace(tensor, true).second)
                continue;
            if (!checkLossless(engine, tensorSlice(std::get<0>(tensor),
                                                   r.wbits, r.seed),
                               r.wbits, r.seed,
                               opt_.tamper == "lossless" && first, &why))
                ledger_.fail(id, why);
        }
    }

    // ---- traced run ------------------------------------------------------

    /** Server spans per phase name: (requests, mean ms), from ta_trace. */
    bool
    traceTable(const ServePhase &ph,
               std::map<std::string, std::pair<double, double>> *out)
    {
        const std::string table = path("trace.txt");
        std::string err;
        if (!runTool({opt_.binDir + "/ta_trace", ph.traceFile}, table, 60,
                     &err)) {
            err_ = "ta_trace failed: " + err;
            return false;
        }
        std::ifstream in(table);
        std::string line;
        bool inTable = false;
        while (std::getline(in, line)) {
            if (line.rfind("phase ", 0) == 0) {
                inTable = true;
                continue;
            }
            if (!inTable)
                continue;
            std::istringstream ls(line);
            std::string name;
            double count = 0, mean = 0;
            if (!(ls >> name >> count >> mean))
                break;
            (*out)[name] = {count, mean};
        }
        if (out->count("exec") == 0) {
            err_ = "ta_trace reported no exec spans";
            return false;
        }
        return true;
    }

    bool
    perLayer(const ServePhase &ph, std::vector<Metric> &out)
    {
        std::map<std::string, std::pair<double, double>> spans;
        if (!traceTable(ph, &spans))
            return false;
        auto mean = [&](const char *name) {
            const auto it = spans.find(name);
            return it == spans.end() ? 0.0 : it->second.second;
        };
        // Client latency minus the server's spans up to the reply's
        // hand-off, per request. The serialize span is left out: it
        // covers writing the reply to the socket and ends after the
        // client may already hold it, so the client's clock counts it
        // as transport.
        const double traced = static_cast<double>(ph.latMs.size());
        double serverMs = 0;
        for (const char *p : {"queue", "pack", "pin", "exec"}) {
            const auto it = spans.find(p);
            if (it != spans.end())
                serverMs += it->second.first * it->second.second / traced;
        }
        double clientMs = 0;
        for (double l : ph.latMs)
            clientMs += l / traced;
        Stats d = ph.statsDelta;
        auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

        // In-process timings of the protocol calls on the workload's
        // own lines.
        std::vector<double> parseUs, responseUs;
        for (size_t i = ph.timedBegin; i < ph.reqs.size(); ++i) {
            const std::string line = ta::serializeRequest(ph.reqs[i]);
            ta::ServiceRequest parsed;
            std::string err;
            double t = now();
            const bool ok = ta::parseRequestLine(line, parsed, err);
            parseUs.push_back(1e6 * (now() - t));
            const ta::LayerRun &run = expected_[runKeyOf(ph.reqs[i])];
            t = now();
            const std::string resp = ta::serializeResponse(parsed, run);
            responseUs.push_back(1e6 * (now() - t));
            if (!ok || resp != ph.replies[i])
                ledger_.fail(ph.firstOp + i, "in-process parse and "
                                             "serialize disagree with the "
                                             "server");
        }

        out = {
            {"service.queue_ms", "ms", mean("queue")},
            {"service.mean_window", "count",
             ratio(d["served"], d["windows"])},
            {"service.exec_ms", "ms", mean("exec")},
            {"service.pack_ms", "ms", mean("pack")},
            {"service.serialize_ms", "ms", mean("serialize")},
            {"service.transport_ms", "ms", clientMs - serverMs},
            {"service.parse_us", "us", ta::percentileOf(parseUs, 50)},
            {"service.response_us", "us", ta::percentileOf(responseUs, 50)},
            {"exec.cache_hit_rate", "ratio",
             ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"])},
        };
        if (!catalogDir_.empty()) {
            out.push_back({"storage.pin_ms", "ms", mean("pin")});
            out.push_back({"storage.buffer_hit_rate", "ratio",
                           ratio(d["buffer_hits"],
                                 d["buffer_hits"] + d["buffer_misses"])});
            out.push_back({"storage.evictions", "count",
                           ratio(d["buffer_evictions"], traced)});
            if (!catalogInProcess(ph, out))
                return false;
        }
        return true;
    }

    /**
     * The catalog path in process: BufferManager::openCatalog, then
     * pin + runLayerView over the first timed round, each plane's
     * runShapeView checked against synthesis.
     */
    bool
    catalogInProcess(const ServePhase &ph, std::vector<Metric> &out)
    {
        ta::BufferManager::Config bc;
        bc.bufferPages = kCatalogBufferPages;
        std::vector<double> openMs;
        std::unique_ptr<ta::BufferManager> bm;
        for (int rep = 0; rep < 3; ++rep) {
            bm = std::make_unique<ta::BufferManager>(bc);
            const double t = now();
            if (!bm->openCatalog(catalogDir_, &err_))
                return false;
            openMs.push_back(1e3 * (now() - t));
        }
        std::map<ta::EngineKey, std::unique_ptr<ta::TransArrayAccelerator>>
            engines;
        std::vector<double> runMs;
        const size_t end =
            std::min(ph.reqs.size(), ph.timedBegin + spec_.roundSize);
        for (size_t i = ph.timedBegin; i < end; ++i) {
            const ta::ServiceRequest &r = ph.reqs[i];
            const ta::CatalogEntry *e = bm->findEntry(
                r.model, r.seed, r.wbits,
                std::min<uint64_t>(r.shape.n, ta::kDefaultReprRows),
                std::min<uint64_t>(r.shape.k, ta::kDefaultReprCols));
            ta::BufferManager::Pin pin;
            if (e != nullptr)
                pin = bm->pin(*e, &err_);
            if (!pin.ok()) {
                err_ = "in-process pin failed for " + r.model + ": " + err_;
                return false;
            }
            auto &acc = engines[ta::engineKeyOf(r)];
            if (!acc)
                acc = std::make_unique<ta::TransArrayAccelerator>(
                    ta::engineConfig(ta::engineKeyOf(r), 1));
            const double t = now();
            acc->runLayerView(pin.view(), r.shape.m);
            runMs.push_back(1e3 * (now() - t));
            const ta::LayerRun view =
                acc->runShapeView(r.shape, r.wbits, pin.view());
            if (ta::serializeResponse(r, view) !=
                ta::serializeResponse(r, expected_[runKeyOf(r)]))
                ledger_.fail(ph.firstOp + i, "in-process catalog plane "
                                             "differs from synthesis");
        }
        double sum = 0;
        for (double v : runMs)
            sum += v / runMs.size();
        out.push_back({"core.run_layer_ms", "ms", sum});
        out.push_back({"storage.open_ms", "ms", ta::percentileOf(openMs, 50)});
        return true;
    }

    const Options &opt_;
    ServeSpec spec_;
    Ledger ledger_;
    std::string err_;
    /** The packed catalog, shared read-only by every server. */
    std::string catalogDir_;
    uint64_t round_ = 0;
    uint64_t requestIds_ = 0;
    uint64_t controlIds_ = 0;
    std::map<RunKey, ta::LayerRun> expected_;
    std::map<std::tuple<uint64_t, int, uint64_t>, bool> lossless_;
};

} // namespace

Result
runServeSynth(const Options &opt)
{
    // The seeded mixed full-shape trace: FC projections, attention
    // scores and CNN im2col GEMMs at 4/6/8-bit weights, 1/8 on the
    // static scoreboard, every request with a seed of its own.
    ServeSpec spec;
    spec.name = "serve_synth";
    spec.clients = std::min(4, opt.nproc);
    spec.roundSize = 32;
    spec.nominalOpsPerS = 75;
    // Up to 2 sessions of up to 2 executor threads, never more
    // workers than nproc.
    const int threads = std::max(1, std::min(2, opt.nproc / 2));
    const int sessions = std::max(1, std::min(2, opt.nproc / threads));
    spec.serverFlags = {"--threads", std::to_string(threads), "--sessions",
                        std::to_string(sessions), "--window", "8"};
    const uint64_t seed = opt.seed;
    const size_t roundSize = spec.roundSize;
    spec.makeRound = [seed, roundSize](uint64_t round) {
        ta::Rng rng(mixSeed(seed, round));
        std::vector<ta::ServiceRequest> reqs(roundSize);
        for (size_t i = 0; i < roundSize; ++i) {
            ta::ServiceRequest &r = reqs[i];
            r.samples = 64;
            switch (rng.uniformInt(0, 2)) {
            case 0:
                r.shape = ta::GemmShape{4096, 4096,
                           static_cast<uint64_t>(512 * rng.uniformInt(1, 4))};
                break;
            case 1:
                r.shape = ta::GemmShape{2048, 128, 2048};
                break;
            default:
                r.shape = ta::GemmShape{512,
                           static_cast<uint64_t>(576 * rng.uniformInt(1, 4)),
                           3136};
            }
            const int64_t pick = rng.uniformInt(0, 3);
            r.wbits = pick == 0 ? 8 : pick == 1 ? 6 : 4;
            r.useStatic = rng.bernoulli(0.125);
            r.seed = mixSeed(seed, (round << 20) + i);
        }
        return reqs;
    };
    return ServeBench(opt, std::move(spec)).run();
}

Result
runServeCatalog(const Options &opt)
{
    // Three LLaMA FC models at 4 bits plus LLaMA-2-7B attention at 8
    // bits; the residency bound sits below the catalog's page count.
    // One request in ten asks for 512 samples instead of 96.
    struct Model
    {
        std::string name;
        ta::WorkloadSuite suite;
        int wbits;
    };
    const std::vector<Model> models = {
        {"llama7b-fc", ta::llamaFcLayers(ta::llama2_7b()), 4},
        {"llama13b-fc", ta::llamaFcLayers(ta::llama2_13b()), 4},
        {"llama8b-fc", ta::llamaFcLayers(ta::llama3_8b()), 4},
        {"llama7b-attn", ta::llamaAttentionLayers(ta::llama2_7b()), 8}};
    const uint64_t packSeed = 1 + mixSeed(opt.seed, 0) % 1000000;
    std::vector<ta::ServiceRequest> entries;
    for (const Model &m : models) {
        for (size_t i = 0; i < m.suite.layers.size(); ++i) {
            ta::ServiceRequest r;
            r.model = m.name;
            r.shape = m.suite.layers[i].shape;
            r.wbits = m.wbits;
            r.seed = ta::layerSeed(packSeed, i);
            entries.push_back(r);
        }
    }

    ServeSpec spec;
    spec.name = "serve_catalog";
    spec.clients = 1;
    spec.roundSize = 100;
    spec.nominalOpsPerS = 330;
    spec.serverFlags = {"--threads", "1", "--sessions", "1", "--buffer-pages",
                        std::to_string(kCatalogBufferPages)};
    const std::string pack = opt.binDir + "/ta_pack";
    const std::string log = opt.workDir + "/serve_catalog.pack.log";
    spec.packCatalog = [pack, log, packSeed](const std::string &dir,
                                             std::string *err) {
        const std::string seed = std::to_string(packSeed);
        return runTool({pack, "--out", dir + "/fc.taseg", "--suites",
                        "llama7b-fc,llama13b-fc,llama8b-fc", "--wbits", "4",
                        "--seed", seed},
                       log, 120, err) &&
               runTool({pack, "--out", dir + "/attn.taseg", "--suites",
                        "llama7b-attn", "--wbits", "8", "--seed", seed},
                       log, 120, err);
    };
    const uint64_t seed = opt.seed;
    const size_t roundSize = spec.roundSize;
    spec.makeRound = [seed, roundSize, entries](uint64_t round) {
        ta::Rng rng(mixSeed(seed, round));
        std::vector<ta::ServiceRequest> reqs;
        for (size_t i = 0; i < roundSize; ++i)
            reqs.push_back(entries[static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(entries.size()) - 1))]);
        // Exactly kCatalogHeavyPerRound heavy requests, at seeded
        // positions (a partial Fisher-Yates draw).
        std::vector<size_t> pos(roundSize);
        for (size_t i = 0; i < roundSize; ++i)
            pos[i] = i;
        for (size_t h = 0; h < kCatalogHeavyPerRound; ++h) {
            std::swap(pos[h], pos[static_cast<size_t>(rng.uniformInt(
                                  static_cast<int64_t>(h),
                                  static_cast<int64_t>(roundSize) - 1))]);
            reqs[pos[h]].samples = kCatalogHeavySamples;
        }
        return reqs;
    };
    return ServeBench(opt, std::move(spec)).run();
}

} // namespace perfbench
