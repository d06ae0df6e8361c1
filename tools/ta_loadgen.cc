/**
 * @file
 * ta_loadgen: load generator and correctness checker for `ta_serve`
 * and the `ta_router` cluster. Replays a seeded trace of
 * mixed-suite/mixed-precision requests against a server — spawned as
 * a child over a socketpair (--spawn), reached over TCP
 * (--connect/--port), or an in-process cluster of N spawned replicas
 * (--replicas/--policy) — in closed-loop phases at concurrency 1 (the
 * serial-request baseline) and N (cross-request batching), plus an
 * optional open-loop phase at a fixed offered rate.
 *
 * Every response is verified byte-identical to an in-process serial
 * run of the same request (--no-verify disables), which is the
 * service determinism contract of docs/SERVICE.md: co-batching,
 * server threads, cache state, routing policy, replica count and
 * replica restarts must not change a single byte.
 *
 * Emits BENCH_service_throughput.json (--json-out) with throughput
 * and p50/p95/p99 latency per phase — host-performance numbers by
 * design, like model_throughput. Cluster mode sweeps the routing
 * policies (--policy all) and emits BENCH_cluster_throughput.json
 * with per-policy throughput, latency percentiles and aggregate
 * plan-cache hit rate (engine-affinity routing keeps per-replica
 * caches hot, so its hit rate beats round_robin's).
 *
 * Adversarial mode: --scenario NAME replays a named scenario from the
 * scenario library (src/cluster/scenarios.h) — seeded fault
 * injection, autoscaling, overload shedding and slow clients — and
 * emits BENCH_scenarios.json with hard gates: zero lost or
 * duplicated responses ever, shedding only under declared overload,
 * byte-verified responses for everything served. --faults SPEC
 * injects a fault schedule into plain cluster mode; --stall-reads MS
 * turns the single-server client into a slow reader.
 */

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/fault_injector.h"
#include "cluster/router.h"
#include "cluster/scenarios.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness/bench_json.h"
#include "kernels/kernel_table.h"
#include "obs/trace.h"
#include "service/cost_model.h"
#include "service/line_reader.h"
#include "service/protocol.h"
#include "storage/buffer_manager.h"

using namespace ta;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- client ---------------------------------------------------------------

struct Reply
{
    std::string line;
    double recvTime = 0;
};

/**
 * One pipelined protocol connection: call() writes a request line and
 * returns a future completed by the reader thread when the response
 * with the same id arrives (responses may come back out of order).
 */
class ServiceClient
{
  public:
    /** `stall_read_ms` > 0 makes this a deliberately slow client:
     *  the reader sleeps that long before consuming each response
     *  line, so the kernel socket buffer (and then the server's
     *  writer) backs up — the scenario suite's backpressure probe. */
    explicit ServiceClient(int fd, int stall_read_ms = 0)
        : fd_(fd), stallReadMs_(stall_read_ms)
    {
        reader_ = std::thread([this] { readLoop(); });
    }

    ~ServiceClient()
    {
        ::shutdown(fd_, SHUT_RDWR);
        if (reader_.joinable())
            reader_.join();
        ::close(fd_);
    }

    std::future<Reply>
    call(const ServiceRequest &req)
    {
        std::future<Reply> fut;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (dead_) {
                // The reader already exited (server gone): nobody
                // will ever complete this promise — fail it now
                // instead of blocking the caller forever.
                std::promise<Reply> p;
                p.set_value(Reply{serializeError(req.id,
                                                 "connection closed"),
                                  nowSeconds()});
                return p.get_future();
            }
            fut = pending_[req.id].get_future();
        }
        const std::string line = serializeRequest(req) + "\n";
        std::lock_guard<std::mutex> lock(writeMu_);
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                ::write(fd_, line.data() + off, line.size() - off);
            if (n <= 0)
                break; // reader loop reports the dead peer
            off += static_cast<size_t>(n);
        }
        return fut;
    }

  private:
    void
    readLoop()
    {
        LineReader reader(fd_);
        std::string line;
        bool terminated = true;
        // A line torn by a server crash mid-write is connection
        // death, not a response.
        while (reader.next(line, terminated) && terminated) {
            if (stallReadMs_ > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stallReadMs_));
            deliver(line);
        }
        // EOF: mark the connection dead (future call()s fail fast)
        // and fail any still-pending call so waiters don't hang.
        std::lock_guard<std::mutex> lock(mu_);
        dead_ = true;
        for (auto &kv : pending_)
            kv.second.set_value(
                Reply{serializeError(kv.first, "connection closed"),
                      nowSeconds()});
        pending_.clear();
    }

    void
    deliver(const std::string &line)
    {
        std::vector<std::pair<std::string, std::string>> kvs;
        std::string err;
        uint64_t id = 0;
        if (parseJsonFlat(line, kvs, err)) {
            for (const auto &kv : kvs)
                if (kv.first == "id")
                    id = std::strtoull(kv.second.c_str(), nullptr, 10);
        }
        std::promise<Reply> p;
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = pending_.find(id);
            if (it == pending_.end()) {
                // Unsolicited line: nobody is waiting on this id — a
                // duplicate response or a stray write. Dropped, but
                // counted so the SLO ledger can assert zero.
                ++unsolicited_;
                return;
            }
            p = std::move(it->second);
            pending_.erase(it);
        }
        p.set_value(Reply{line, nowSeconds()});
    }

  public:
    /** Dropped response lines no caller was waiting for (duplicate
     *  ids); must stay 0 in a healthy run. */
    uint64_t
    unsolicited() const
    {
        return unsolicited_.load();
    }

  private:
    int fd_;
    int stallReadMs_ = 0;
    std::thread reader_;
    std::mutex mu_;
    std::unordered_map<uint64_t, std::promise<Reply>> pending_;
    std::atomic<uint64_t> unsolicited_{0};
    bool dead_ = false;
    std::mutex writeMu_;
};

/**
 * How a phase issues one request: over a ServiceClient connection, or
 * straight into an in-process cluster Router. Lets the phase/verify
 * machinery drive both single-server and cluster targets.
 */
using CallFn =
    std::function<std::future<Reply>(const ServiceRequest &)>;

CallFn
clientCall(ServiceClient &client)
{
    return [&client](const ServiceRequest &req) {
        return client.call(req);
    };
}

CallFn
routerCall(Router &router)
{
    return [&router](const ServiceRequest &req) {
        auto prom = std::make_shared<std::promise<Reply>>();
        std::future<Reply> fut = prom->get_future();
        router.submit(req, [prom](const std::string &line) {
            prom->set_value(Reply{line, nowSeconds()});
        });
        return fut;
    };
}

// ---- server attachment ----------------------------------------------------

int
spawnServer(const std::string &command, pid_t &child)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("ta_loadgen: socketpair");
        return -1;
    }
    child = ::fork();
    if (child < 0) {
        std::perror("ta_loadgen: fork");
        ::close(sv[0]);
        ::close(sv[1]);
        return -1;
    }
    if (child == 0) {
        ::dup2(sv[1], STDIN_FILENO);
        ::dup2(sv[1], STDOUT_FILENO);
        ::close(sv[0]);
        ::close(sv[1]);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        std::perror("ta_loadgen: exec");
        _exit(127);
    }
    ::close(sv[1]);
    return sv[0];
}

int
connectTcp(uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // The server may still be starting: retry with a fresh socket per
    // attempt (a failed connect leaves the fd unusable).
    for (int attempt = 0; attempt < 50; ++attempt) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            std::perror("ta_loadgen: socket");
            return -1;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr,
                 "ta_loadgen: could not connect to 127.0.0.1:%u\n",
                 static_cast<unsigned>(port));
    return -1;
}

// ---- trace ----------------------------------------------------------------

/**
 * Seeded mixed trace: FC-projection, attention-score and CNN-ish
 * shapes at 4/6/8-bit weights, a fraction on the static scoreboard.
 * Quick shapes are CI-sized; full shapes are LLaMA-7B-sized (the
 * representative-tensor cap keeps them laptop-feasible).
 */
std::vector<ServiceRequest>
buildTrace(uint64_t seed, size_t count, bool quick,
           bool spread_engines = false)
{
    Rng rng(seed);
    std::vector<ServiceRequest> trace;
    trace.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        ServiceRequest r;
        const int suite = static_cast<int>(rng.uniformInt(0, 2));
        if (quick) {
            r.samples = 16;
            if (suite == 0) { // FC projection
                r.shape = {static_cast<uint64_t>(
                               128 * rng.uniformInt(1, 4)),
                           static_cast<uint64_t>(
                               128 * rng.uniformInt(1, 4)),
                           static_cast<uint64_t>(
                               64 * rng.uniformInt(1, 4))};
            } else if (suite == 1) { // attention score
                r.shape = {static_cast<uint64_t>(
                               64 * rng.uniformInt(2, 4)),
                           64, 128};
            } else { // CNN im2col
                r.shape = {64,
                           static_cast<uint64_t>(
                               64 * rng.uniformInt(2, 9)),
                           196};
            }
        } else {
            r.samples = 64;
            if (suite == 0) {
                r.shape = {4096, 4096,
                           static_cast<uint64_t>(
                               512 * rng.uniformInt(1, 4))};
            } else if (suite == 1) {
                r.shape = {2048, 128, 2048};
            } else {
                r.shape = {512,
                           static_cast<uint64_t>(
                               576 * rng.uniformInt(1, 4)),
                           3136};
            }
        }
        const int pick = static_cast<int>(rng.uniformInt(0, 3));
        r.wbits = pick == 0 ? 8 : pick == 1 ? 6 : 4;
        r.useStatic = rng.bernoulli(0.125);
        r.seed = static_cast<uint64_t>(rng.uniformInt(1, 1 << 20));
        r.priority = static_cast<int>(rng.uniformInt(0, 2));
        // Cluster runs spread requests over more EngineKeys so the
        // affinity policy has a real engine space to partition.
        if (spread_engines)
            r.maxdist = 3 + static_cast<int>(rng.uniformInt(0, 2));
        trace.push_back(r);
    }
    return trace;
}

// ---- phases ---------------------------------------------------------------

struct PhaseResult
{
    double wallSecs = 0;
    double rps = 0;
    PercentileSummary latencyMs;
    uint64_t errors = 0;
    /** trace index -> response line (for verification). */
    std::vector<std::string> responses;
};

/** The one stderr line per closed-loop phase (both targets). */
void
reportClosedLoop(size_t concurrency, const PhaseResult &res)
{
    std::fprintf(stderr,
                 "  closed loop, concurrency %-3zu: %6.1f req/s, "
                 "p50/p95/p99 %.2f/%.2f/%.2f ms, %llu errors\n",
                 concurrency, res.rps, res.latencyMs.p50,
                 res.latencyMs.p95, res.latencyMs.p99,
                 static_cast<unsigned long long>(res.errors));
}

/** Stats-map lookup defaulting to "0" for absent keys. */
std::string
statOf(const std::map<std::string, std::string> &stats,
       const char *key)
{
    const auto it = stats.find(key);
    return it == stats.end() ? "0" : it->second;
}

std::atomic<uint64_t> g_next_id{1};

/**
 * When set, phases stamp a fresh trace id on every request even with
 * the local tracer off — the --obs benchmark's traced phases exercise
 * the full wire path (trace field serialized, validated, propagated
 * to server-side spans) without requiring a client-side trace file.
 */
std::atomic<bool> g_stamp_trace_ids{false};

/**
 * Stamp a fresh trace id on `req` when client tracing is on (local
 * tracer enabled, or g_stamp_trace_ids). Returns the trace id to
 * record a client `request` span under, or 0 when no span should be
 * recorded (tracer off).
 */
uint64_t
maybeTraceRequest(ServiceRequest &req)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    const bool stamp =
        g_stamp_trace_ids.load(std::memory_order_relaxed);
    if (!tracer.enabled() && !stamp)
        return 0;
    req.traceId = obs::mintTraceId(req.id);
    return tracer.enabled() ? req.traceId : 0;
}

/** Record the client-side `request` root span (issue -> response).
 *  No-op with trace_id 0. */
void
recordRequestSpan(uint64_t trace_id, uint64_t t0_ns)
{
    if (trace_id == 0)
        return;
    obs::Tracer &tracer = obs::Tracer::instance();
    obs::Span span;
    span.traceId = trace_id;
    span.spanId = tracer.mintSpanId();
    span.name = "request";
    span.t0Ns = t0_ns;
    span.t1Ns = obs::Tracer::nowNs();
    tracer.record(span);
}

bool
responseOk(const std::string &line)
{
    return line.find("\"ok\":1") != std::string::npos;
}

/** Closed loop: keep `concurrency` requests in flight until the trace
 *  is exhausted; every completion immediately launches the next.
 *  `on_issue` (when set) observes each trace index as it is issued —
 *  the fault injector's clock. */
PhaseResult
runClosedLoop(const CallFn &call,
              const std::vector<ServiceRequest> &trace,
              size_t concurrency,
              std::vector<ServiceRequest> *sent_out,
              const std::function<void(size_t)> &on_issue = {})
{
    PhaseResult res;
    res.responses.assign(trace.size(), "");
    if (sent_out != nullptr)
        sent_out->assign(trace.size(), ServiceRequest());
    std::atomic<size_t> next{0};
    std::vector<std::vector<double>> lat(concurrency);
    const double t0 = nowSeconds();
    std::vector<std::thread> workers;
    for (size_t w = 0; w < concurrency; ++w) {
        workers.emplace_back([&, w] {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= trace.size())
                    return;
                ServiceRequest req = trace[i];
                req.id = g_next_id.fetch_add(1);
                const uint64_t trace_id = maybeTraceRequest(req);
                if (sent_out != nullptr)
                    (*sent_out)[i] = req;
                if (on_issue)
                    on_issue(i);
                const uint64_t span_t0 =
                    trace_id != 0 ? obs::Tracer::nowNs() : 0;
                const double sent = nowSeconds();
                Reply reply = call(req).get();
                recordRequestSpan(trace_id, span_t0);
                lat[w].push_back((reply.recvTime - sent) * 1e3);
                res.responses[i] = std::move(reply.line);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    res.wallSecs = nowSeconds() - t0;
    res.rps = trace.size() / res.wallSecs;
    std::vector<double> all;
    for (const auto &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    res.latencyMs = percentileSummary(std::move(all));
    for (const std::string &line : res.responses)
        res.errors += responseOk(line) ? 0 : 1;
    return res;
}

/** Open loop: offer requests at a fixed rate regardless of
 *  completions; latency includes any server-side queueing.
 *  `lat_out` (when set) receives the per-trace-index latency in ms —
 *  the SLO mode classifies each response against its own deadline. */
PhaseResult
runOpenLoop(const CallFn &call,
            const std::vector<ServiceRequest> &trace, double rate_rps,
            std::vector<ServiceRequest> *sent_out,
            std::vector<double> *lat_out = nullptr)
{
    PhaseResult res;
    res.responses.assign(trace.size(), "");
    if (sent_out != nullptr)
        sent_out->assign(trace.size(), ServiceRequest());
    if (lat_out != nullptr)
        lat_out->assign(trace.size(), 0.0);
    std::vector<std::future<Reply>> futures(trace.size());
    std::vector<double> sent_at(trace.size(), 0);
    std::vector<uint64_t> trace_ids(trace.size(), 0);
    std::vector<uint64_t> span_t0s(trace.size(), 0);
    const double t0 = nowSeconds();
    for (size_t i = 0; i < trace.size(); ++i) {
        const double due = t0 + i / rate_rps;
        while (nowSeconds() < due)
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        ServiceRequest req = trace[i];
        req.id = g_next_id.fetch_add(1);
        trace_ids[i] = maybeTraceRequest(req);
        if (sent_out != nullptr)
            (*sent_out)[i] = req;
        if (trace_ids[i] != 0)
            span_t0s[i] = obs::Tracer::nowNs();
        sent_at[i] = nowSeconds();
        futures[i] = call(req);
    }
    std::vector<double> lat;
    lat.reserve(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        Reply reply = futures[i].get();
        recordRequestSpan(trace_ids[i], span_t0s[i]);
        const double ms = (reply.recvTime - sent_at[i]) * 1e3;
        lat.push_back(ms);
        if (lat_out != nullptr)
            (*lat_out)[i] = ms;
        res.responses[i] = std::move(reply.line);
    }
    res.wallSecs = nowSeconds() - t0;
    res.rps = trace.size() / res.wallSecs;
    res.latencyMs = percentileSummary(std::move(lat));
    for (const std::string &line : res.responses)
        res.errors += responseOk(line) ? 0 : 1;
    return res;
}

// ---- verification ---------------------------------------------------------

/**
 * In-process serial oracle: one single-threaded engine per EngineKey,
 * runs each unique request once and memoizes the LayerRun. This is
 * "standalone ta_sim" as a library call — the same engineConfig and
 * the same serializeResponse the CLI's --response mode uses.
 */
class Verifier
{
  public:
    /** The oracle response line for `req`. */
    std::string
    expected(const ServiceRequest &req)
    {
        return serializeResponse(req, runOf(req));
    }

  private:
    const LayerRun &
    runOf(const ServiceRequest &req)
    {
        const EngineKey key = engineKeyOf(req);
        SigKey sig{key, req.shape.n, req.shape.k, req.shape.m,
                   req.wbits, req.seed};
        const auto it = memo_.find(sig);
        if (it != memo_.end())
            return it->second;
        auto eit = engines_.find(key);
        if (eit == engines_.end())
            eit = engines_
                      .emplace(key,
                               std::make_unique<TransArrayAccelerator>(
                                   engineConfig(key, 1)))
                      .first;
        return memo_
            .emplace(sig, eit->second->runShape(req.shape, req.wbits,
                                                req.seed))
            .first->second;
    }

    struct SigKey
    {
        EngineKey key;
        uint64_t n, k, m;
        int wbits;
        uint64_t seed;

        bool
        operator<(const SigKey &o) const
        {
            if (key < o.key || o.key < key)
                return key < o.key;
            return std::tie(n, k, m, wbits, seed) <
                   std::tie(o.n, o.k, o.m, o.wbits, o.seed);
        }
    };

    std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>>
        engines_;
    std::map<SigKey, LayerRun> memo_;
};

uint64_t
verifyPhase(Verifier &verifier,
            const std::vector<ServiceRequest> &sent,
            const PhaseResult &phase, const char *name)
{
    uint64_t mismatches = 0;
    for (size_t i = 0; i < sent.size(); ++i) {
        if (!responseOk(phase.responses[i]))
            continue; // rejects are counted separately
        const std::string want = verifier.expected(sent[i]);
        if (phase.responses[i] != want) {
            if (++mismatches <= 3)
                std::fprintf(stderr,
                             "VERIFY MISMATCH (%s, trace %zu):\n"
                             "  got      %s\n  expected %s\n",
                             name, i, phase.responses[i].c_str(),
                             want.c_str());
        }
    }
    return mismatches;
}

// ---- stats op -------------------------------------------------------------

std::map<std::string, std::string>
fetchStats(const CallFn &call)
{
    ServiceRequest req;
    req.op = "stats";
    req.id = g_next_id.fetch_add(1);
    const Reply reply = call(req).get();
    std::vector<std::pair<std::string, std::string>> kvs;
    std::string err;
    std::map<std::string, std::string> out;
    if (parseJsonFlat(reply.line, kvs, err))
        for (const auto &kv : kvs)
            out[kv.first] = kv.second;
    return out;
}

// ---- cluster mode ---------------------------------------------------------

struct ClusterPolicyResult
{
    RoutePolicy policy;
    PhaseResult serial;
    PhaseResult batched;
    uint64_t mismatches = 0;
    uint64_t restarts = 0;
    std::map<std::string, std::string> stats;
};

/**
 * Drive an in-process Router over `replicas` spawned `ta_serve`
 * processes, once per policy — each policy gets a fresh cluster so
 * per-policy plan-cache hit rates are comparable (a shared cluster
 * would hand later policies the earlier policies' warm caches).
 * Every response is byte-verified against the same in-process serial
 * oracle the single-server mode uses.
 */
int
runClusterMode(const std::string &serve_bin, int replicas,
               const std::vector<RoutePolicy> &policies,
               size_t requests, size_t concurrency, uint64_t seed,
               bool quick, bool json_out, bool verify,
               const FaultPlan &faults,
               const std::string &trace_out)
{
    // A per-phase trace length that is a multiple of the replica
    // count lets round_robin realign on every replay (request i
    // lands on the same slot each pass) — an artifact of looping one
    // fixed trace, not of the policy. Nudge the length off the
    // multiple so the bench measures rr's scattering honestly.
    if (replicas > 1 && requests % static_cast<size_t>(replicas) == 0)
        ++requests;
    const std::vector<ServiceRequest> trace =
        buildTrace(seed, requests, quick, /*spread_engines=*/true);
    Verifier verifier; // shared: the oracle memoizes across policies
    std::vector<ClusterPolicyResult> results;
    int rc = 0;

    for (const RoutePolicy policy : policies) {
        ReplicaProcessConfig rcfg;
        rcfg.serveBinary = serve_bin;
        rcfg.count = replicas;
        rcfg.serveArgs = {"--window", "8", "--sessions", "2"};
        // Traced cluster: replicas write <file>.replica<i>.json; the
        // in-process router and this client share the local tracer's
        // <file>. Later policies overwrite earlier policies' files.
        rcfg.traceOutBase = trace_out;
        ReplicaManager manager(rcfg);
        if (!manager.start()) {
            std::fprintf(stderr,
                         "ta_loadgen: cluster failed to start (serve "
                         "binary: %s)\n",
                         serve_bin.c_str());
            return 1;
        }
        RouterConfig rtcfg;
        rtcfg.policy = policy;
        if (!faults.events.empty()) {
            // Blackholed replicas keep their connection open; only
            // the per-attempt timeout recovers those requests.
            rtcfg.requestTimeoutMs = 5000;
        }
        Router router(rtcfg, manager);
        router.start();
        const CallFn call = routerCall(router);
        // Each policy gets a fresh cluster and so a fresh injector:
        // every policy faces the identical fault schedule, fired by
        // the batched phase's request indices.
        FaultInjector injector(manager, faults, seed ^ 0x5ceull);
        std::function<void(size_t)> on_issue;
        if (!faults.events.empty())
            on_issue = [&injector](size_t i) {
                injector.onRequestIssued(i);
            };

        std::fprintf(stderr,
                     "ta_loadgen: cluster of %d, policy %s, %zu "
                     "requests/phase, warmup...\n",
                     replicas, routePolicyName(policy), requests);
        runClosedLoop(call, trace, std::max<size_t>(4, concurrency),
                      nullptr);

        ClusterPolicyResult res;
        res.policy = policy;
        std::vector<ServiceRequest> serial_sent, batched_sent;
        res.serial = runClosedLoop(call, trace, 1, &serial_sent);
        reportClosedLoop(1, res.serial);
        res.batched = runClosedLoop(call, trace, concurrency,
                                    &batched_sent, on_issue);
        reportClosedLoop(concurrency, res.batched);
        if (res.serial.errors + res.batched.errors > 0) {
            std::fprintf(stderr,
                         "ta_loadgen: %llu closed-loop error "
                         "response(s) under policy %s\n",
                         static_cast<unsigned long long>(
                             res.serial.errors + res.batched.errors),
                         routePolicyName(policy));
            rc = 1;
        }
        if (verify) {
            res.mismatches += verifyPhase(verifier, serial_sent,
                                          res.serial, "serial");
            res.mismatches += verifyPhase(verifier, batched_sent,
                                          res.batched, "batched");
            std::fprintf(
                stderr,
                "  verify: %llu mismatches (byte-identity vs "
                "standalone serial runs)\n",
                static_cast<unsigned long long>(res.mismatches));
            if (res.mismatches > 0)
                rc = 1;
        }
        res.stats = fetchStats(call);
        res.restarts = manager.restarts();
        std::fprintf(
            stderr,
            "  cluster: forwarded %s (retried %s), cache hit rate "
            "%s, windows %s, restarts %s\n",
            statOf(res.stats, "router_forwarded").c_str(),
            statOf(res.stats, "router_retried").c_str(),
            statOf(res.stats, "cache_hit_rate").c_str(),
            statOf(res.stats, "windows").c_str(),
            statOf(res.stats, "replica_restarts").c_str());

        router.stop();
        manager.stop();
        results.push_back(std::move(res));
    }

    if (json_out) {
        BenchJson json("cluster_throughput");
        json.add("benchmark", std::string("cluster_throughput"));
        json.add("schema_version", static_cast<uint64_t>(2));
        json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
        json.add("replicas", static_cast<uint64_t>(replicas));
        json.add("requests_per_phase",
                 static_cast<uint64_t>(requests));
        json.add("concurrency", static_cast<uint64_t>(concurrency));
        double hit_rate_of[3] = {-1, -1, -1};
        uint64_t total_mismatches = 0, total_errors = 0;
        for (const ClusterPolicyResult &res : results) {
            const std::string p = routePolicyName(res.policy);
            auto num = [&](const char *key) {
                const auto it = res.stats.find(key);
                return it == res.stats.end()
                           ? 0.0
                           : std::strtod(it->second.c_str(), nullptr);
            };
            json.add(p + "_serial_rps", res.serial.rps);
            json.add(p + "_batched_rps", res.batched.rps);
            json.add(p + "_p50_ms", res.batched.latencyMs.p50);
            json.add(p + "_p95_ms", res.batched.latencyMs.p95);
            json.add(p + "_p99_ms", res.batched.latencyMs.p99);
            json.add(p + "_cache_hit_rate", num("cache_hit_rate"));
            json.add(p + "_server_windows",
                     static_cast<uint64_t>(num("windows")));
            json.add(p + "_batched_requests",
                     static_cast<uint64_t>(num("batched_requests")));
            json.add(p + "_restarts", res.restarts);
            json.add(p + "_errors",
                     res.serial.errors + res.batched.errors);
            json.add(p + "_verify_mismatches", res.mismatches);
            hit_rate_of[static_cast<int>(res.policy)] =
                num("cache_hit_rate");
            total_mismatches += res.mismatches;
            total_errors += res.serial.errors + res.batched.errors;
        }
        const double rr_rate =
            hit_rate_of[static_cast<int>(RoutePolicy::RoundRobin)];
        const double aff_rate =
            hit_rate_of[static_cast<int>(RoutePolicy::Affinity)];
        if (rr_rate >= 0 && aff_rate >= 0)
            json.add("affinity_vs_round_robin_hit_gain",
                     aff_rate - rr_rate);
        json.add("errors", total_errors);
        json.add("verified",
                 std::string(!verify                 ? "skipped"
                             : total_mismatches == 0 ? "true"
                                                     : "false"));
        json.add("verify_mismatches", total_mismatches);
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return rc;
}

// ---- SLO mode -------------------------------------------------------------

/** Deadline (ms) stamped on the deliberately-unmeetable fraction of
 *  the SLO trace: far below any host's execution time for the heavy
 *  shapes, so the planner's shed decision is never borderline. */
constexpr uint64_t kHopelessDeadlineMs = 2;

/**
 * Deadline-bearing SLO trace: the regular seeded mixed trace with a
 * generous per-request deadline, except every 4th request is replaced
 * by a heavy full-size layer carrying a deadline no host can meet
 * (kHopelessDeadlineMs). The layer is heavy in simulated sub-tiles
 * (2048 sampled), not only in weight synthesis: the warm pass leaves
 * its plane in the server's weight memo, so the timed pass skips
 * synthesis. A planned server sheds the hopeless quarter
 * at admission for ~zero cost; a FIFO server burns real execution
 * time on work that was already late, starving the meetable
 * requests' goodput — exactly the contrast BENCH_slo.json gates on.
 */
std::vector<ServiceRequest>
buildSloTrace(uint64_t seed, size_t count, bool quick,
              uint64_t meet_deadline_ms)
{
    std::vector<ServiceRequest> trace =
        buildTrace(seed, count, quick);
    Rng rng(seed ^ 0x510ull);
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i % 4 == 3) {
            ServiceRequest &r = trace[i];
            if (quick)
                r.shape = {2048, 4096, 1024};
            else
                r.shape = {4096, 4096, 2048};
            r.samples = 2048;
            r.wbits = 4;
            r.useStatic = false;
            r.seed = static_cast<uint64_t>(
                rng.uniformInt(1, 1 << 20));
            r.deadlineMs = kHopelessDeadlineMs;
        } else {
            trace[i].deadlineMs = meet_deadline_ms;
        }
    }
    return trace;
}

/** Everything measured for one scheduler policy in the SLO bench. */
struct SloOutcome
{
    std::string policy;
    PhaseResult open;
    uint64_t issued = 0;
    uint64_t served = 0;          ///< ok responses
    uint64_t withinDeadline = 0;  ///< served with latency <= deadline
    uint64_t missed = 0;          ///< served after the deadline
    uint64_t shedUnmeetable = 0;  ///< explicit deadline_unmeetable
    uint64_t shedOverloaded = 0;  ///< explicit queue-full shed
    uint64_t lost = 0;            ///< connection-closed replies
    uint64_t otherErrors = 0;
    uint64_t duplicates = 0;      ///< unsolicited response lines
    uint64_t mismatches = 0;
    double goodputRps = 0;        ///< withinDeadline / wallSecs
    double p99WithinMs = 0;       ///< p99 latency of in-deadline serves
    std::map<std::string, std::string> stats;
};

/** Spawn one `--scheduler <policy>` server, replay the SLO trace
 *  open-loop at `rate_rps`, classify every response into the ledger
 *  and byte-verify everything served. */
SloOutcome
runSloPolicy(const std::string &serve_cmd, const std::string &policy,
             const std::vector<ServiceRequest> &trace,
             const std::vector<ServiceRequest> &warm_trace,
             double rate_rps, bool verify, Verifier &verifier)
{
    SloOutcome out;
    out.policy = policy;
    pid_t child = -1;
    const int fd = spawnServer(serve_cmd, child);
    if (fd < 0) {
        out.lost = trace.size();
        return out;
    }
    {
        ServiceClient client(fd);
        const CallFn call = clientCall(client);
        // Warm both servers identically (engines + plan cache) so the
        // open-loop phase compares scheduling, not cache state.
        runClosedLoop(call, warm_trace, 4, nullptr);

        std::vector<ServiceRequest> sent;
        std::vector<double> lat_ms;
        out.open = runOpenLoop(call, trace, rate_rps, &sent, &lat_ms);
        out.issued = trace.size();
        std::vector<double> within_lat;
        for (size_t i = 0; i < trace.size(); ++i) {
            const std::string &line = out.open.responses[i];
            if (responseOk(line)) {
                ++out.served;
                const uint64_t dl = sent[i].deadlineMs;
                if (dl == 0 || lat_ms[i] <= static_cast<double>(dl)) {
                    ++out.withinDeadline;
                    within_lat.push_back(lat_ms[i]);
                } else {
                    ++out.missed;
                }
            } else if (isDeadlineUnmeetableLine(line)) {
                ++out.shedUnmeetable;
            } else if (isOverloadedLine(line)) {
                ++out.shedOverloaded;
            } else if (line.find("connection closed") !=
                       std::string::npos) {
                ++out.lost;
            } else {
                ++out.otherErrors;
            }
        }
        out.goodputRps = out.open.wallSecs > 0
                             ? out.withinDeadline / out.open.wallSecs
                             : 0.0;
        out.p99WithinMs =
            within_lat.empty()
                ? 0.0
                : percentileOf(std::move(within_lat), 99.0);
        if (verify)
            out.mismatches =
                verifyPhase(verifier, sent, out.open, policy.c_str());
        out.stats = fetchStats(call);
        out.duplicates = client.unsolicited();

        ServiceRequest req;
        req.op = "shutdown";
        req.id = g_next_id.fetch_add(1);
        client.call(req).get();
    }
    if (child > 0) {
        int status = 0;
        ::waitpid(child, &status, 0);
    }
    return out;
}

void
reportSloPolicy(const SloOutcome &o)
{
    std::fprintf(
        stderr,
        "  %-7s: %llu/%llu within deadline (goodput %.1f req/s), "
        "%llu late, shed %llu unmeetable + %llu overloaded, "
        "%llu lost, %llu errors, p99-within %.2f ms\n",
        o.policy.c_str(),
        static_cast<unsigned long long>(o.withinDeadline),
        static_cast<unsigned long long>(o.issued), o.goodputRps,
        static_cast<unsigned long long>(o.missed),
        static_cast<unsigned long long>(o.shedUnmeetable),
        static_cast<unsigned long long>(o.shedOverloaded),
        static_cast<unsigned long long>(o.lost),
        static_cast<unsigned long long>(o.otherErrors),
        o.p99WithinMs);
}

/**
 * SLO benchmark: the same deadline-bearing overload trace replayed
 * open-loop against a planned-scheduler server and a FIFO server
 * (fresh process each), plus a serial pass that measures per-request
 * host time for the cost-model error percentiles. Emits
 * BENCH_slo.json and enforces the SLO gates:
 *   - planned goodput (in-deadline serves per second) beats FIFO's;
 *   - the planner sheds exactly the hopeless fraction, explicitly
 *     (deadline_unmeetable), and FIFO never sheds on deadline;
 *   - zero lost or duplicated responses under either policy;
 *   - every served response byte-identical to the serial oracle;
 *   - the planner's client-visible shed count matches the server's
 *     own shed_unmeetable ledger.
 */
int
runSloMode(const std::string &serve_bin, size_t requests,
           uint64_t seed, bool quick, bool json_out, bool verify,
           double rate_flag, uint64_t deadline_ms,
           const std::string &cost_model_path)
{
    if (deadline_ms == 0)
        deadline_ms = quick ? 2000 : 8000;
    const std::vector<ServiceRequest> trace =
        buildSloTrace(seed, requests, quick, deadline_ms);
    // Deadline-free copy: warmup and the serial timing pass must
    // never shed (a shed request would leave its engine cold).
    std::vector<ServiceRequest> warm_trace = trace;
    for (ServiceRequest &r : warm_trace)
        r.deadlineMs = 0;
    uint64_t hopeless = 0;
    for (const ServiceRequest &r : trace)
        hopeless += r.deadlineMs == kHopelessDeadlineMs ? 1 : 0;

    CostModel model = CostModel::builtin();
    if (!cost_model_path.empty()) {
        std::string err;
        if (!model.loadFile(cost_model_path, &err)) {
            std::fprintf(stderr, "--cost-model: %s\n", err.c_str());
            return 2;
        }
    }

    // Serial pass (in-process, single-threaded engines — the same
    // executor the calibration battery timed): per-request host ms
    // for the cost-model error percentiles, and the capacity estimate
    // the offered overload rate is derived from.
    std::vector<double> errs;
    double serial_wall = 0;
    {
        Verifier timing_oracle;
        for (const ServiceRequest &r : warm_trace)
            timing_oracle.expected(r); // warm engines + memo
        std::map<EngineKey, std::unique_ptr<TransArrayAccelerator>>
            engines;
        const double t0 = nowSeconds();
        for (const ServiceRequest &r : warm_trace) {
            const EngineKey key = engineKeyOf(r);
            auto it = engines.find(key);
            if (it == engines.end())
                it = engines
                         .emplace(
                             key,
                             std::make_unique<TransArrayAccelerator>(
                                 engineConfig(key, 1)))
                         .first;
            const double s0 = nowSeconds();
            it->second->runShape(r.shape, r.wbits, r.seed);
            const double ms = (nowSeconds() - s0) * 1e3;
            if (ms > 0)
                errs.push_back(
                    std::abs(model.predictMsAt(r, 0.0) - ms) / ms);
        }
        serial_wall = nowSeconds() - t0;
    }
    const double err_p50 = percentileOf(errs, 50.0);
    const double err_p90 = percentileOf(errs, 90.0);
    const double err_p99 = percentileOf(errs, 99.0);
    std::fprintf(stderr,
                 "ta_loadgen: slo trace %zu (%llu hopeless), serial "
                 "capacity %.1f req/s, cost-model err p50/p90/p99 "
                 "%.3f/%.3f/%.3f\n",
                 trace.size(),
                 static_cast<unsigned long long>(hopeless),
                 trace.size() / serial_wall, err_p50, err_p90,
                 err_p99);

    // Offered overload: twice the measured serial capacity unless the
    // caller pinned a rate. Identical for both policies.
    const double rate =
        rate_flag > 0 ? rate_flag
                      : std::max(4.0, 2.0 * trace.size() / serial_wall);

    Verifier verifier; // shared: memoizes across both policies
    const std::string cm_arg =
        cost_model_path.empty() ? ""
                                : " --cost-model " + cost_model_path;
    SloOutcome planned = runSloPolicy(
        serve_bin + " --scheduler planned" + cm_arg, "planned", trace,
        warm_trace, rate, verify, verifier);
    reportSloPolicy(planned);
    SloOutcome fifo =
        runSloPolicy(serve_bin + " --scheduler fifo" + cm_arg, "fifo",
                     trace, warm_trace, rate, verify, verifier);
    reportSloPolicy(fifo);

    // ---- gates ----
    int rc = 0;
    auto fail = [&rc](const char *what) {
        std::fprintf(stderr, "SLO GATE FAILED: %s\n", what);
        rc = 1;
    };
    if (planned.goodputRps <= fifo.goodputRps)
        fail("planned goodput must beat fifo goodput");
    if (planned.shedUnmeetable != hopeless)
        fail("planner must shed exactly the hopeless fraction");
    if (fifo.shedUnmeetable != 0)
        fail("fifo must never shed on deadline");
    for (const SloOutcome *o : {&planned, &fifo}) {
        if (o->lost > 0 || o->duplicates > 0)
            fail("zero lost/duplicated responses required");
        if (o->otherErrors > 0)
            fail("unexplained error responses");
        if (o->mismatches > 0)
            fail("byte-identity verification failed");
        if (o->served + o->shedUnmeetable + o->shedOverloaded +
                o->lost + o->otherErrors !=
            o->issued)
            fail("response ledger does not balance");
    }
    const uint64_t server_shed = static_cast<uint64_t>(std::strtoull(
        statOf(planned.stats, "shed_unmeetable").c_str(), nullptr,
        10));
    if (server_shed != planned.shedUnmeetable)
        fail("server shed ledger disagrees with client count");

    if (json_out) {
        BenchJson json("slo");
        json.add("benchmark", std::string("slo"));
        json.add("schema_version", static_cast<uint64_t>(2));
        json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
        json.add("requests", static_cast<uint64_t>(trace.size()));
        json.add("hopeless_requests", hopeless);
        json.add("deadline_ms", deadline_ms);
        json.add("hopeless_deadline_ms", kHopelessDeadlineMs);
        json.add("offered_rps", rate);
        json.add("serial_capacity_rps", trace.size() / serial_wall);
        json.add("cost_err_p50", err_p50);
        json.add("cost_err_p90", err_p90);
        json.add("cost_err_p99", err_p99);
        json.add("cost_model",
                 std::string(cost_model_path.empty()
                                 ? "builtin"
                                 : cost_model_path.c_str()));
        for (const SloOutcome *o : {&planned, &fifo}) {
            const std::string p = o->policy;
            json.add(p + "_issued", o->issued);
            json.add(p + "_served", o->served);
            json.add(p + "_within_deadline", o->withinDeadline);
            json.add(p + "_missed", o->missed);
            json.add(p + "_goodput_rps", o->goodputRps);
            json.add(p + "_p99_within_deadline_ms", o->p99WithinMs);
            json.add(p + "_p99_ms", o->open.latencyMs.p99);
            json.add(p + "_shed_unmeetable", o->shedUnmeetable);
            json.add(p + "_shed_overloaded", o->shedOverloaded);
            json.add(p + "_lost", o->lost);
            json.add(p + "_duplicates", o->duplicates);
            json.add(p + "_errors", o->otherErrors);
            json.add(p + "_verify_mismatches", o->mismatches);
            const double miss_den =
                static_cast<double>(o->served + o->shedUnmeetable +
                                    o->shedOverloaded);
            json.add(p + "_miss_rate",
                     miss_den > 0
                         ? (o->missed + o->shedUnmeetable +
                            o->shedOverloaded) /
                               miss_den
                         : 0.0);
        }
        json.add("planned_beats_fifo",
                 static_cast<uint64_t>(
                     planned.goodputRps > fifo.goodputRps ? 1 : 0));
        json.add("verified",
                 std::string(!verify ? "skipped"
                             : planned.mismatches + fifo.mismatches ==
                                     0
                                 ? "true"
                                 : "false"));
        json.add("pass", static_cast<uint64_t>(rc == 0 ? 1 : 0));
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return rc;
}

// ---- storage mode ---------------------------------------------------------

/**
 * Time one spawn-to-first-response round trip (ms): process startup,
 * catalog open (when the command has one) and the first request's
 * full service. Minimum of `trials` fresh processes — fork/exec noise
 * easily exceeds the synthesis-vs-pin delta a single trial measures.
 * Returns a negative value on spawn failure; `line_out` holds the
 * last trial's response line for the byte-identity check.
 */
double
coldFirstResponseMs(const std::string &serve_cmd,
                    const ServiceRequest &req, int trials,
                    std::string &line_out)
{
    double best = -1;
    for (int t = 0; t < trials; ++t) {
        pid_t child = -1;
        const double t0 = nowSeconds();
        const int fd = spawnServer(serve_cmd, child);
        if (fd < 0)
            return -1;
        {
            ServiceClient client(fd);
            ServiceRequest r = req;
            r.id = g_next_id.fetch_add(1);
            const Reply reply = client.call(r).get();
            const double ms = (reply.recvTime - t0) * 1e3;
            line_out = reply.line;
            if (!responseOk(line_out))
                return -1;
            if (best < 0 || ms < best)
                best = ms;
            ServiceRequest sd;
            sd.op = "shutdown";
            sd.id = g_next_id.fetch_add(1);
            client.call(sd).get();
        }
        if (child > 0) {
            int status = 0;
            ::waitpid(child, &status, 0);
        }
    }
    return best;
}

/**
 * Storage benchmark (--catalog): replay a named packed model against
 * a `ta_serve --catalog` server and emit BENCH_storage.json. The
 * trace is built from the catalog itself (the model's actual packed
 * planes, enumerated in-process with the same BufferManager the
 * server uses), so every request exercises the mmap + pin path; the
 * byte-identity oracle still synthesizes, which is exactly the
 * contract under test — catalog bytes must equal synthesis bytes.
 * Measures cold-open first-response latency (catalog server) against
 * a fresh-synthesis cold start (plain server, same request sans
 * model), warm serial/batched throughput, and the server's buffer
 * hit/eviction ledger.
 */
int
runStorageMode(const std::string &serve_bin,
               const std::string &catalog_dir, std::string model_name,
               size_t requests, size_t concurrency, uint64_t seed,
               bool quick, bool json_out, bool verify)
{
    BufferManager cat;
    std::string err;
    if (!cat.openCatalog(catalog_dir, &err)) {
        std::fprintf(stderr, "ta_loadgen: --catalog: %s\n",
                     err.c_str());
        return 2;
    }
    if (model_name.empty())
        model_name = cat.models().front()->name;
    const CatalogModel *model = cat.findModel(model_name);
    if (model == nullptr) {
        std::fprintf(stderr,
                     "ta_loadgen: --model: no model '%s' in %s\n",
                     model_name.c_str(), catalog_dir.c_str());
        return 2;
    }

    // Round-robin over the model's layers, shuffled by the seed so
    // page-pin order varies run to run but the set of planes doesn't.
    Rng rng(seed);
    std::vector<ServiceRequest> trace;
    trace.reserve(requests);
    for (size_t i = 0; i < requests; ++i) {
        const size_t pick =
            i < model->entries.size()
                ? i
                : static_cast<size_t>(rng.uniformInt(
                      0, static_cast<int>(model->entries.size()) - 1));
        const CatalogEntry &e = model->entries[pick];
        ServiceRequest r;
        r.shape = {e.n, e.k, e.m};
        r.wbits = e.wbits;
        r.seed = e.seed;
        r.samples = quick ? 16 : 64;
        r.model = model->name;
        trace.push_back(r);
    }

    // Cold probe: the model's largest plane, where the synthesis the
    // catalog path skips is most expensive.
    size_t cold_idx = 0;
    for (size_t i = 0; i < model->entries.size(); ++i)
        if (model->entries[i].dataBytes >
            model->entries[cold_idx].dataBytes)
            cold_idx = i;
    ServiceRequest cold_req = trace[0];
    {
        const CatalogEntry &e = model->entries[cold_idx];
        cold_req.shape = {e.n, e.k, e.m};
        cold_req.wbits = e.wbits;
        cold_req.seed = e.seed;
    }
    ServiceRequest cold_synth = cold_req;
    cold_synth.model.clear();

    const std::string catalog_cmd =
        serve_bin + " --catalog " + catalog_dir;
    const int trials = 3;
    std::string cold_line, synth_line;
    const double cold_open_ms =
        coldFirstResponseMs(catalog_cmd, cold_req, trials, cold_line);
    const double synth_cold_ms = coldFirstResponseMs(
        serve_bin, cold_synth, trials, synth_line);
    int rc = 0;
    if (cold_open_ms < 0 || synth_cold_ms < 0) {
        std::fprintf(stderr,
                     "ta_loadgen: cold-start probe failed (catalog "
                     "%.2f ms, synthesis %.2f ms)\n",
                     cold_open_ms, synth_cold_ms);
        return 1;
    }
    // Byte-compare past the id field — the probes carry fresh ids.
    const auto afterId = [](const std::string &line) {
        const size_t comma = line.find(',');
        return comma == std::string::npos ? line
                                          : line.substr(comma);
    };
    if (afterId(cold_line) != afterId(synth_line)) {
        std::fprintf(stderr,
                     "VERIFY MISMATCH (cold start):\n  catalog   "
                     "%s\n  synthesis %s\n",
                     cold_line.c_str(), synth_line.c_str());
        rc = 1;
    }
    std::fprintf(stderr,
                 "ta_loadgen: cold first response (best of %d): "
                 "catalog %.2f ms, synthesis %.2f ms (%.2fx)\n",
                 trials, cold_open_ms, synth_cold_ms,
                 synth_cold_ms / cold_open_ms);

    // Warm phases against one long-lived catalog server.
    pid_t child = -1;
    const int fd = spawnServer(catalog_cmd, child);
    if (fd < 0)
        return 1;
    PhaseResult serial, batched;
    uint64_t mismatches = 0;
    std::map<std::string, std::string> sstats;
    {
        ServiceClient client(fd);
        const CallFn call = clientCall(client);
        std::fprintf(stderr,
                     "ta_loadgen: model '%s' (%zu layers), %zu "
                     "requests/phase, warmup...\n",
                     model->name.c_str(), model->entries.size(),
                     requests);
        runClosedLoop(call, trace, std::max<size_t>(4, concurrency),
                      nullptr);
        std::vector<ServiceRequest> serial_sent, batched_sent;
        serial = runClosedLoop(call, trace, 1, &serial_sent);
        reportClosedLoop(1, serial);
        batched = runClosedLoop(call, trace, concurrency,
                                &batched_sent);
        reportClosedLoop(concurrency, batched);
        if (serial.errors + batched.errors > 0) {
            std::fprintf(stderr,
                         "ta_loadgen: %llu closed-loop error "
                         "response(s)\n",
                         static_cast<unsigned long long>(
                             serial.errors + batched.errors));
            rc = 1;
        }
        if (verify) {
            Verifier verifier;
            mismatches +=
                verifyPhase(verifier, serial_sent, serial, "serial");
            mismatches += verifyPhase(verifier, batched_sent, batched,
                                      "batched");
            std::fprintf(stderr,
                         "  verify: %llu mismatches (catalog bytes "
                         "vs synthesis oracle)\n",
                         static_cast<unsigned long long>(mismatches));
            if (mismatches > 0)
                rc = 1;
        }
        sstats = fetchStats(call);
        ServiceRequest sd;
        sd.op = "shutdown";
        sd.id = g_next_id.fetch_add(1);
        client.call(sd).get();
    }
    if (child > 0) {
        int status = 0;
        ::waitpid(child, &status, 0);
    }

    auto num = [&](const char *key) {
        return std::strtod(statOf(sstats, key).c_str(), nullptr);
    };
    const double hits = num("buffer_hits");
    const double misses = num("buffer_misses");
    const double hit_rate =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    std::fprintf(
        stderr,
        "  server: buffer hit rate %.3f (%.0f hits, %.0f misses, "
        "%.0f evictions), %.0f model(s), %.0f bytes mapped\n",
        hit_rate, hits, misses, num("buffer_evictions"),
        num("catalog_models"), num("storage_bytes_mapped"));

    const bool cold_beats = cold_open_ms < synth_cold_ms;
    if (!cold_beats)
        std::fprintf(stderr,
                     "ta_loadgen: WARNING cold-open did not beat "
                     "fresh synthesis\n");

    if (json_out) {
        BenchJson json("storage");
        json.add("benchmark", std::string("storage"));
        json.add("schema_version", static_cast<uint64_t>(1));
        json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
        json.add("model", model->name);
        json.add("model_layers",
                 static_cast<uint64_t>(model->entries.size()));
        json.add("catalog_models",
                 static_cast<uint64_t>(num("catalog_models")));
        json.add("storage_bytes_mapped",
                 static_cast<uint64_t>(num("storage_bytes_mapped")));
        json.add("requests_per_phase",
                 static_cast<uint64_t>(requests));
        json.add("concurrency", static_cast<uint64_t>(concurrency));
        json.add("cold_open_first_response_ms", cold_open_ms);
        json.add("synthesis_cold_first_response_ms", synth_cold_ms);
        json.add("cold_open_speedup", synth_cold_ms / cold_open_ms);
        json.add("cold_open_beats_synthesis",
                 static_cast<uint64_t>(cold_beats ? 1 : 0));
        json.add("serial_rps", serial.rps);
        json.add("batched_rps", batched.rps);
        json.add("batched_p50_ms", batched.latencyMs.p50);
        json.add("batched_p95_ms", batched.latencyMs.p95);
        json.add("batched_p99_ms", batched.latencyMs.p99);
        json.add("buffer_hits", static_cast<uint64_t>(hits));
        json.add("buffer_misses", static_cast<uint64_t>(misses));
        json.add("buffer_evictions",
                 static_cast<uint64_t>(num("buffer_evictions")));
        json.add("buffer_hit_rate", hit_rate);
        json.add("errors", serial.errors + batched.errors);
        json.add("verified",
                 std::string(!verify          ? "skipped"
                             : mismatches == 0 ? "true"
                                               : "false"));
        json.add("verify_mismatches", mismatches);
        json.add("pass",
                 static_cast<uint64_t>(rc == 0 && cold_beats ? 1 : 0));
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return rc;
}

// ---- observability overhead mode ------------------------------------------

/** Response line with the per-run `id` echo stripped: everything from
 *  the first comma on. Two runs of the same request differ only in
 *  the id they were issued under. */
std::string
afterIdField(const std::string &line)
{
    const size_t comma = line.find(',');
    return comma == std::string::npos ? line : line.substr(comma);
}

struct ObsPhase
{
    double rps = 0;
    double p99Ms = 0;
    uint64_t errors = 0;
    std::vector<std::string> responses;
    std::vector<ServiceRequest> sent;
};

/**
 * One --obs measurement phase: spawn `cmd`, warm it, run the batched
 * closed loop once, shut it down. With `traced` every request carries
 * a fresh trace id (the server records spans for all of them); the
 * responses must come back byte-identical either way.
 */
ObsPhase
runObsPhase(const std::string &cmd,
            const std::vector<ServiceRequest> &trace,
            size_t concurrency, bool traced)
{
    ObsPhase out;
    pid_t child = -1;
    const int fd = spawnServer(cmd, child);
    if (fd < 0) {
        out.errors = trace.size();
        return out;
    }
    {
        ServiceClient client(fd);
        const CallFn call = clientCall(client);
        g_stamp_trace_ids.store(traced);
        runClosedLoop(call, trace, std::max<size_t>(4, concurrency),
                      nullptr);
        PhaseResult res =
            runClosedLoop(call, trace, concurrency, &out.sent);
        g_stamp_trace_ids.store(false);
        out.rps = res.rps;
        out.p99Ms = res.latencyMs.p99;
        out.errors = res.errors;
        out.responses = std::move(res.responses);
        ServiceRequest sd;
        sd.op = "shutdown";
        sd.id = g_next_id.fetch_add(1);
        client.call(sd).get();
    }
    if (child > 0) {
        int status = 0;
        ::waitpid(child, &status, 0);
    }
    return out;
}

/** Spans (`"ph":"X"` events) and total bytes of one trace file.
 *  Returns false when the file is missing or empty. */
bool
traceFileStats(const std::string &path, uint64_t &spans,
               uint64_t &bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    if (text.empty())
        return false;
    bytes = text.size();
    spans = 0;
    const std::string needle = "\"ph\":\"X\"";
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++spans;
    return true;
}

/**
 * Observability overhead benchmark (--obs): the same seeded trace
 * replayed against a plain server and a `--trace-out` server,
 * alternating untraced/traced across `trials` rounds (best-of to
 * shave scheduler noise), gating the tracing tax and the determinism
 * contract. Emits BENCH_obs.json with the gates:
 *   - every traced response byte-identical to its untraced twin
 *     (modulo the id echo) AND to the in-process serial oracle;
 *   - traced throughput >= 95% of untraced throughput;
 *   - the traced server actually recorded spans (the phase measured
 *     tracing, not a silently-disabled tracer).
 */
int
runObsMode(const std::string &serve_bin, size_t requests,
           size_t concurrency, uint64_t seed, bool quick,
           bool json_out, bool verify)
{
    const std::vector<ServiceRequest> trace =
        buildTrace(seed, requests, quick);
    const std::string trace_file = "obs_bench_trace.json";
    const std::string base_cmd =
        serve_bin + " --window 8 --sessions 2";
    const std::string traced_cmd =
        base_cmd + " --trace-out " + trace_file;
    const int trials = 3;

    double untraced_rps = 0, traced_rps = 0;
    double untraced_p99 = 0, traced_p99 = 0;
    double best_overhead = 1e30;
    uint64_t errors = 0, mismatched_bytes = 0, mismatches = 0;
    Verifier verifier;
    ObsPhase last_untraced, last_traced;
    for (int t = 0; t < trials; ++t) {
        std::remove(trace_file.c_str());
        ObsPhase untraced =
            runObsPhase(base_cmd, trace, concurrency, false);
        ObsPhase traced =
            runObsPhase(traced_cmd, trace, concurrency, true);
        std::fprintf(stderr,
                     "ta_loadgen: obs trial %d: untraced %.1f req/s "
                     "(p99 %.2f ms), traced %.1f req/s (p99 %.2f "
                     "ms)\n",
                     t + 1, untraced.rps, untraced.p99Ms, traced.rps,
                     traced.p99Ms);
        errors += untraced.errors + traced.errors;
        // Overhead is judged within a trial — the two phases ran back
        // to back under the same machine conditions — and the best
        // pairing across trials is kept. Comparing the fastest
        // untraced phase of one trial against the fastest traced
        // phase of another measures host noise, not tracing cost.
        const double trial_overhead =
            untraced.rps > 0
                ? 100.0 * (1.0 - traced.rps / untraced.rps)
                : 100.0;
        if (trial_overhead < best_overhead) {
            best_overhead = trial_overhead;
            untraced_rps = untraced.rps;
            traced_rps = traced.rps;
            untraced_p99 = untraced.p99Ms;
            traced_p99 = traced.p99Ms;
        }
        // Byte-identity: the trace field must be invisible in
        // response bytes — traced response i == untraced response i
        // past the per-run id echo.
        for (size_t i = 0; i < trace.size(); ++i)
            if (afterIdField(traced.responses[i]) !=
                afterIdField(untraced.responses[i])) {
                if (++mismatched_bytes <= 3)
                    std::fprintf(
                        stderr,
                        "OBS MISMATCH (trial %d, trace %zu):\n"
                        "  traced   %s\n  untraced %s\n",
                        t + 1, i, traced.responses[i].c_str(),
                        untraced.responses[i].c_str());
            }
        last_untraced = std::move(untraced);
        last_traced = std::move(traced);
    }
    if (verify) {
        const auto verifyObs = [&](const ObsPhase &ph,
                                   const char *name) {
            PhaseResult pr;
            pr.responses = ph.responses;
            return verifyPhase(verifier, ph.sent, pr, name);
        };
        mismatches += verifyObs(last_untraced, "obs-untraced");
        mismatches += verifyObs(last_traced, "obs-traced");
    }

    // The traced server flushed its span file at shutdown: per-span
    // cost on disk, and proof the phase really traced.
    uint64_t spans = 0, trace_bytes = 0;
    const bool have_trace =
        traceFileStats(trace_file, spans, trace_bytes);
    const double bytes_per_span =
        spans > 0 ? static_cast<double>(trace_bytes) /
                        static_cast<double>(spans)
                  : 0.0;

    const double overhead_pct =
        untraced_rps > 0
            ? 100.0 * (1.0 - traced_rps / untraced_rps)
            : 100.0;
    const bool responses_identical =
        mismatched_bytes == 0 && mismatches == 0 && errors == 0;

    int rc = 0;
    auto fail = [&rc](const char *what) {
        std::fprintf(stderr, "OBS GATE FAILED: %s\n", what);
        rc = 1;
    };
    if (!responses_identical)
        fail("responses must be byte-identical traced vs untraced");
    if (traced_rps < 0.95 * untraced_rps)
        fail("tracing overhead exceeds 5% of throughput");
    if (!have_trace || spans == 0)
        fail("traced server recorded no spans");

    std::fprintf(stderr,
                 "ta_loadgen: obs: untraced %.1f req/s, traced %.1f "
                 "req/s (%.2f%% overhead), p99 %+.2f ms, %llu "
                 "span(s), %.1f bytes/span: %s\n",
                 untraced_rps, traced_rps, overhead_pct,
                 traced_p99 - untraced_p99,
                 static_cast<unsigned long long>(spans),
                 bytes_per_span, rc == 0 ? "PASS" : "FAIL");

    if (json_out) {
        BenchJson json("obs");
        json.add("benchmark", std::string("obs"));
        json.add("schema_version", static_cast<uint64_t>(1));
        json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
        json.add("requests_per_phase",
                 static_cast<uint64_t>(trace.size()));
        json.add("concurrency", static_cast<uint64_t>(concurrency));
        json.add("trials", static_cast<uint64_t>(trials));
        json.add("untraced_rps", untraced_rps);
        json.add("traced_rps", traced_rps);
        json.add("overhead_pct", overhead_pct);
        json.add("untraced_p99_ms", untraced_p99);
        json.add("traced_p99_ms", traced_p99);
        json.add("p99_delta_ms", traced_p99 - untraced_p99);
        json.add("spans", spans);
        json.add("trace_bytes", trace_bytes);
        json.add("bytes_per_span", bytes_per_span);
        json.add("responses_identical",
                 static_cast<uint64_t>(responses_identical ? 1 : 0));
        json.add("errors", errors);
        json.add("verify_mismatches", mismatches);
        json.add("verified",
                 std::string(!verify          ? "skipped"
                             : mismatches == 0 ? "true"
                                               : "false"));
        json.add("pass", static_cast<uint64_t>(rc == 0 ? 1 : 0));
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return rc;
}

// ---- scenario mode --------------------------------------------------------

/**
 * Per-index delivery ledger for one scenario run. Every responder
 * firing lands here, including late or duplicate ones — the gates
 * need to *see* a duplicated response, not have it masked by a
 * future that can only complete once.
 */
struct ScenarioLedger
{
    std::mutex mu;
    std::vector<int> deliveries;
    std::vector<std::string> lines; ///< first response per index
    std::vector<double> latMs;
    std::vector<ServiceRequest> sent;
    std::vector<std::promise<void>> first; ///< set on first delivery

    explicit ScenarioLedger(size_t n)
        : deliveries(n, 0), lines(n), latMs(n, 0), sent(n), first(n)
    {
    }

    void
    record(size_t i, const std::string &line, double lat_ms)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (++deliveries[i] == 1) {
            lines[i] = line;
            latMs[i] = lat_ms;
            first[i].set_value();
        }
    }
};

/** Issue trace[i] into the router, recording into the ledger. */
void
scenarioIssue(Router &router, const ScenarioSpec &spec,
              FaultInjector &injector,
              const std::shared_ptr<ScenarioLedger> &ledger, size_t i)
{
    ServiceRequest req = spec.trace[i];
    req.id = g_next_id.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(ledger->mu);
        ledger->sent[i] = req;
    }
    injector.onRequestIssued(i);
    const double sent = nowSeconds();
    router.submit(req, [ledger, i, sent](const std::string &line) {
        ledger->record(i, line, (nowSeconds() - sent) * 1e3);
    });
}

/** One slow client's transcript (verified after the threads join —
 *  the Verifier is not thread-safe). */
struct SlowClientResult
{
    std::vector<ServiceRequest> sent;
    std::vector<std::string> lines;
    uint64_t lost = 0;
};

/**
 * Pipeline `spec.slowClientRequests` requests on one connection to
 * replica `slot`, reading responses with `spec.stallReadMs` sleeps —
 * the server keeps the connection writable (or blocks its writer)
 * while the rest of the cluster must stay unaffected.
 */
SlowClientResult
runSlowClient(const ScenarioSpec &spec, uint16_t port, uint64_t seed,
              bool quick, std::chrono::seconds deadline)
{
    SlowClientResult res;
    const int fd = connectTcp(port);
    if (fd < 0) {
        res.lost = spec.slowClientRequests;
        return res;
    }
    ServiceClient client(fd, spec.stallReadMs);
    const std::vector<ServiceRequest> trace =
        scenarioTrace(seed, spec.slowClientRequests, quick, 6, 0.0);
    std::vector<std::future<Reply>> futures;
    for (ServiceRequest req : trace) {
        req.id = g_next_id.fetch_add(1);
        res.sent.push_back(req);
        futures.push_back(client.call(req));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].wait_for(deadline) !=
            std::future_status::ready) {
            ++res.lost;
            res.lines.emplace_back();
            continue;
        }
        res.lines.push_back(futures[i].get().line);
    }
    return res;
}

/** Wait (bounded) for replica `slot`'s persisted plan-cache file to
 *  appear — corrupt_cache faults need a file to corrupt. */
bool
waitForCacheFile(const std::string &base, int slot, int timeout_ms)
{
    const std::string path = base + "." + std::to_string(slot);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    struct stat st;
    while (std::chrono::steady_clock::now() < deadline) {
        if (::stat(path.c_str(), &st) == 0 && st.st_size > 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr,
                 "ta_loadgen: no plan-cache file at %s after %d ms\n",
                 path.c_str(), timeout_ms);
    return false;
}

/**
 * Replay one scenario against a fresh cluster and classify every
 * request: served (byte-verified), shed (explicit overload), error,
 * lost or duplicated. Bounded waits throughout — a wedged cluster
 * surfaces as lost requests and a failed gate, never a hang.
 */
ScenarioOutcome
runOneScenario(const std::string &serve_bin, const ScenarioSpec &spec,
               uint64_t seed, bool quick, Verifier *verifier)
{
    ScenarioOutcome out;
    const size_t n = spec.trace.size();
    out.requests = n;
    const auto perRequestDeadline =
        std::chrono::seconds(quick ? 60 : 120);

    const std::string cacheBase =
        spec.needsCacheFiles
            ? "scenario_cache_" + spec.name + ".bin"
            : "";
    const int maxSlots = std::max(spec.replicas, spec.maxReplicas);
    for (int i = 0; i < maxSlots && !cacheBase.empty(); ++i)
        std::remove((cacheBase + "." + std::to_string(i)).c_str());

    ReplicaProcessConfig rcfg;
    rcfg.serveBinary = serve_bin;
    rcfg.count = spec.replicas;
    rcfg.serveArgs = {"--window", "8", "--sessions", "2"};
    if (spec.queueCap > 0) {
        rcfg.serveArgs.push_back("--queue-cap");
        rcfg.serveArgs.push_back(std::to_string(spec.queueCap));
    }
    rcfg.planCacheBase = cacheBase;
    rcfg.cacheSaveIntervalSec = spec.cacheSaveIntervalSec;
    rcfg.backoffInitialMs = 50;
    if (spec.maxReplicas > spec.replicas) {
        rcfg.autoscale.maxReplicas = spec.maxReplicas;
        rcfg.autoscale.upDepthPerReplica = 4;
        rcfg.autoscale.downDepthPerReplica = 1;
        rcfg.autoscale.holdMs = 100;
        rcfg.autoscale.cooldownMs = 400;
    }
    ReplicaManager manager(rcfg);
    if (!manager.start()) {
        out.lost = n;
        out.failures.push_back("cluster failed to start");
        return out;
    }

    RouterConfig rtcfg;
    rtcfg.policy = RoutePolicy::Affinity;
    rtcfg.requestTimeoutMs = spec.requestTimeoutMs;
    rtcfg.maxRedispatch = spec.maxRedispatch;
    rtcfg.backoffSeed = seed;
    Router router(rtcfg, manager);
    router.start();
    const CallFn call = routerCall(router);

    FaultInjector injector(manager, spec.faults, seed ^ 0x5ceull,
                           cacheBase);

    if (spec.warmup) {
        std::vector<ServiceRequest> warm(
            spec.trace.begin(),
            spec.trace.begin() +
                static_cast<ptrdiff_t>(std::min<size_t>(24, n)));
        runClosedLoop(call, warm, 4, nullptr);
    }
    // corrupt_cache faults need an on-disk snapshot to flip a byte
    // in: wait for the victim's periodic save after the warmup.
    for (const FaultEvent &ev : spec.faults.events)
        if (ev.kind == FaultKind::CorruptCache && !cacheBase.empty())
            waitForCacheFile(cacheBase, ev.slot >= 0 ? ev.slot : 0,
                             15000);

    const auto ledger = std::make_shared<ScenarioLedger>(n);
    std::vector<std::future<void>> firsts;
    firsts.reserve(n);
    for (size_t i = 0; i < n; ++i)
        firsts.push_back(ledger->first[i].get_future());

    // Slow-client sidecars run concurrently with the main trace.
    std::vector<SlowClientResult> slowResults(
        static_cast<size_t>(spec.slowClients));
    std::vector<std::thread> slowThreads;
    for (int c = 0; c < spec.slowClients; ++c) {
        const int slot = c % spec.replicas;
        const ReplicaEndpoint ep = manager.endpoint(slot);
        slowThreads.emplace_back([&, c, ep] {
            slowResults[static_cast<size_t>(c)] = runSlowClient(
                spec, ep.port, seed + 1000 + static_cast<uint64_t>(c),
                quick, perRequestDeadline);
        });
    }

    const double t0 = nowSeconds();
    if (spec.openLoop) {
        for (size_t i = 0; i < n; ++i) {
            const double due = t0 + spec.arrivalSec[i];
            while (nowSeconds() < due)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            scenarioIssue(router, spec, injector, ledger, i);
        }
        const auto absDeadline =
            std::chrono::steady_clock::now() + perRequestDeadline;
        for (size_t i = 0; i < n; ++i)
            firsts[i].wait_until(absDeadline);
    } else {
        std::atomic<size_t> next{0};
        std::vector<std::thread> workers;
        for (size_t w = 0; w < spec.concurrency; ++w) {
            workers.emplace_back([&] {
                while (true) {
                    const size_t i = next.fetch_add(1);
                    if (i >= n)
                        return;
                    scenarioIssue(router, spec, injector, ledger, i);
                    firsts[i].wait_for(perRequestDeadline);
                }
            });
        }
        for (std::thread &t : workers)
            t.join();
    }
    for (std::thread &t : slowThreads)
        t.join();
    out.wallSec = nowSeconds() - t0;
    out.rps = out.wallSec > 0 ? n / out.wallSec : 0;

    out.restarts = manager.restarts();
    out.scaleUps = manager.scaleUps();
    out.scaleDowns = manager.scaleDowns();
    out.abandoned = static_cast<uint64_t>(manager.abandonedCount());

    // Stopping the router fails anything still pending through the
    // responders (counted as errors, not lost), so the ledger is
    // complete once stop() returns.
    router.stop();
    manager.stop();

    std::vector<double> lat;
    {
        std::lock_guard<std::mutex> lock(ledger->mu);
        for (size_t i = 0; i < n; ++i) {
            const int d = ledger->deliveries[i];
            if (d == 0) {
                ++out.lost;
                continue;
            }
            if (d > 1)
                ++out.duplicated;
            const std::string &line = ledger->lines[i];
            if (responseOk(line)) {
                ++out.served;
                lat.push_back(ledger->latMs[i]);
                if (verifier != nullptr &&
                    line != verifier->expected(ledger->sent[i])) {
                    if (++out.mismatches <= 3)
                        std::fprintf(
                            stderr,
                            "VERIFY MISMATCH (%s, trace %zu):\n"
                            "  got      %s\n",
                            spec.name.c_str(), i, line.c_str());
                }
            } else if (isOverloadedLine(line)) {
                ++out.shed;
            } else {
                if (++out.errors <= 3)
                    std::fprintf(stderr,
                                 "  error response (%s, trace %zu): "
                                 "%s\n",
                                 spec.name.c_str(), i, line.c_str());
            }
        }
    }
    for (const SlowClientResult &sc : slowResults) {
        out.requests += sc.sent.size();
        out.lost += sc.lost;
        for (size_t i = 0; i < sc.lines.size(); ++i) {
            const std::string &line = sc.lines[i];
            if (line.empty())
                continue; // already counted lost
            if (responseOk(line)) {
                ++out.served;
                if (verifier != nullptr &&
                    line != verifier->expected(sc.sent[i]))
                    ++out.mismatches;
            } else if (isOverloadedLine(line)) {
                ++out.shed;
            } else {
                ++out.errors;
            }
        }
    }
    const PercentileSummary p = percentileSummary(std::move(lat));
    out.p50Ms = p.p50;
    out.p95Ms = p.p95;
    out.p99Ms = p.p99;

    for (int i = 0; i < maxSlots && !cacheBase.empty(); ++i)
        std::remove((cacheBase + "." + std::to_string(i)).c_str());
    return out;
}

/** Run each named scenario, enforce its gates, emit
 *  BENCH_scenarios.json. Returns the process exit code. */
int
runScenarioMode(const std::string &serve_bin,
                const std::vector<std::string> &names, uint64_t seed,
                bool quick, bool json_out, bool verify)
{
    Verifier verifier; // shared: the oracle memoizes across scenarios
    BenchJson json("scenarios");
    json.add("benchmark", std::string("scenarios"));
    json.add("schema_version", static_cast<uint64_t>(1));
    json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
    std::string list;
    for (const std::string &name : names)
        list += (list.empty() ? "" : ",") + name;
    json.add("scenario_list", list);

    int rc = 0;
    for (const std::string &name : names) {
        ScenarioSpec spec;
        std::string err;
        if (!buildScenario(name, seed, quick, spec, err)) {
            std::fprintf(stderr, "ta_loadgen: %s\n", err.c_str());
            return 2;
        }
        std::fprintf(stderr,
                     "ta_loadgen: scenario %s (%s): %zu requests, "
                     "%d replicas%s...\n",
                     spec.name.c_str(), spec.description.c_str(),
                     spec.trace.size(), spec.replicas,
                     spec.maxReplicas > spec.replicas
                         ? ", autoscaling"
                         : "");
        ScenarioOutcome out = runOneScenario(
            serve_bin, spec, seed, quick,
            verify ? &verifier : nullptr);
        checkScenarioGates(spec, out);
        std::fprintf(
            stderr,
            "  %s: %s — %6.1f req/s, p50/p95/p99 "
            "%.2f/%.2f/%.2f ms, served %llu, shed %llu, lost %llu, "
            "dup %llu, errors %llu, restarts %llu, scale +%llu/-"
            "%llu\n",
            spec.name.c_str(), out.pass ? "PASS" : "FAIL", out.rps,
            out.p50Ms, out.p95Ms, out.p99Ms,
            static_cast<unsigned long long>(out.served),
            static_cast<unsigned long long>(out.shed),
            static_cast<unsigned long long>(out.lost),
            static_cast<unsigned long long>(out.duplicated),
            static_cast<unsigned long long>(out.errors),
            static_cast<unsigned long long>(out.restarts),
            static_cast<unsigned long long>(out.scaleUps),
            static_cast<unsigned long long>(out.scaleDowns));
        for (const std::string &f : out.failures)
            std::fprintf(stderr, "  gate: %s\n", f.c_str());
        if (!out.pass)
            rc = 1;

        json.add(name + "_requests", out.requests);
        json.add(name + "_rps", out.rps);
        json.add(name + "_p50_ms", out.p50Ms);
        json.add(name + "_p95_ms", out.p95Ms);
        json.add(name + "_p99_ms", out.p99Ms);
        json.add(name + "_p99_bound_ms", spec.p99BoundMs);
        json.add(name + "_served", out.served);
        json.add(name + "_shed", out.shed);
        json.add(name + "_lost", out.lost);
        json.add(name + "_duplicated", out.duplicated);
        json.add(name + "_errors", out.errors);
        json.add(name + "_verify_mismatches", out.mismatches);
        json.add(name + "_restarts", out.restarts);
        json.add(name + "_scale_ups", out.scaleUps);
        json.add(name + "_scale_downs", out.scaleDowns);
        json.add(name + "_abandoned", out.abandoned);
        json.add(name + "_allow_shed",
                 static_cast<uint64_t>(spec.allowShed ? 1 : 0));
        json.add(name + "_pass",
                 static_cast<uint64_t>(out.pass ? 1 : 0));
    }
    json.add("verified",
             std::string(verify ? "true" : "skipped"));
    json.add("pass", static_cast<uint64_t>(rc == 0 ? 1 : 0));
    if (json_out) {
        const std::string path = json.write();
        if (!path.empty())
            std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return rc;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--spawn CMD | --connect PORT |\n"
        "           --replicas N [--policy P] [--serve-bin PATH] |\n"
        "           --scenario NAMES [--serve-bin PATH] |\n"
        "           --slo [--serve-bin PATH] |\n"
        "           --obs [--serve-bin PATH] |\n"
        "           --catalog DIR [--model NAME] [--serve-bin PATH])\n"
        "          [--requests N]\n"
        "          [--concurrency N] [--rate RPS] [--seed S]\n"
        "          [--deadline-ms MS] [--cost-model FILE]\n"
        "          [--faults SPEC] [--stall-reads MS]\n"
        "          [--kernels scalar|avx2|neon|auto]\n"
        "          [--trace-out FILE]\n"
        "          [--quick] [--json-out] [--no-verify]\n"
        "          [--no-shutdown]\n"
        "  --spawn        start CMD as a child speaking the protocol\n"
        "                 on its stdin/stdout (via /bin/sh -c)\n"
        "  --connect      connect to a running ta_serve --tcp PORT\n"
        "                 on 127.0.0.1\n"
        "  --replicas     cluster mode: spawn N ta_serve replicas\n"
        "                 behind an in-process router and sweep the\n"
        "                 routing policies (emits\n"
        "                 BENCH_cluster_throughput.json)\n"
        "  --policy       round_robin | least_outstanding | affinity\n"
        "                 | all (cluster mode; default all)\n"
        "  --serve-bin    ta_serve binary for cluster replicas\n"
        "                 (default: next to this binary)\n"
        "  --scenario     adversarial scenario suite: a name, a\n"
        "                 comma list, 'all', or 'list' to print the\n"
        "                 names; enforces the robustness gates and\n"
        "                 emits BENCH_scenarios.json\n"
        "  --catalog      storage benchmark: replay a packed model\n"
        "                 against a ta_serve --catalog server, gate\n"
        "                 catalog-vs-synthesis byte-identity, and\n"
        "                 emit BENCH_storage.json (cold-open vs\n"
        "                 fresh-synthesis cold start, buffer hit\n"
        "                 rate, rps)\n"
        "  --model        model to replay (--catalog mode; default:\n"
        "                 first model in the catalog)\n"
        "  --obs          observability overhead benchmark: the same\n"
        "                 trace against a plain and a --trace-out\n"
        "                 server, gate byte-identical responses and\n"
        "                 <=5%% throughput overhead, and emit\n"
        "                 BENCH_obs.json\n"
        "  --trace-out    record client request spans and write them\n"
        "                 as Chrome trace JSON to FILE at exit; in\n"
        "                 cluster mode (--replicas) the in-process\n"
        "                 router's route spans land in the same file\n"
        "                 and replicas write FILE.replica<i>.json\n"
        "  --slo          SLO benchmark: replay a deadline-bearing\n"
        "                 overload trace against a planned and a fifo\n"
        "                 server, gate planned goodput > fifo goodput\n"
        "                 with explicit sheds only, and emit\n"
        "                 BENCH_slo.json\n"
        "  --deadline-ms  per-request deadline stamped on the trace\n"
        "                 (single-server modes: every request; --slo:\n"
        "                 the meetable fraction; default --slo\n"
        "                 2000 quick / 8000 full)\n"
        "  --cost-model   calibrated ta_calibrate coefficients for\n"
        "                 the --slo cost-error report and the spawned\n"
        "                 servers (default: built-in model)\n"
        "  --faults       fault schedule for cluster mode, e.g.\n"
        "                 \"kill@12:2;blackhole@5:0:400\" (see\n"
        "                 src/cluster/fault_injector.h)\n"
        "  --stall-reads  slow-client mode (--spawn/--connect):\n"
        "                 stall MS before reading each response\n"
        "  --kernels      sub-tile kernel backend for the in-process\n"
        "                 verify oracle (responses byte-identical for\n"
        "                 every backend; default TA_KERNELS/auto)\n"
        "  --requests     trace length per phase (default 48;\n"
        "                 --quick default 24)\n"
        "  --concurrency  closed-loop clients in the batched phase\n"
        "                 (default 8)\n"
        "  --rate         add an open-loop phase at RPS offered load\n"
        "  --seed         trace seed (default 1)\n"
        "  --quick        CI-sized shapes and counts\n"
        "  --json-out     write BENCH_service_throughput.json\n"
        "  --no-verify    skip the byte-identity oracle check\n"
        "  --no-shutdown  leave the server running on exit\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    // A server dying mid-trace must surface as write errors and
    // "connection closed" replies, not kill the load generator.
    std::signal(SIGPIPE, SIG_IGN);
    std::string spawn_cmd;
    long long connect_port = 0;
    long long replicas = 0;
    std::string policy_arg = "all";
    std::string serve_bin;
    std::string scenario_arg;
    std::string catalog_arg;
    std::string model_arg;
    std::string faults_arg;
    long long stall_reads = 0;
    std::string cost_model_path;
    std::string trace_out;
    size_t requests = 0;
    size_t concurrency = 8;
    double rate = 0;
    uint64_t seed = 1;
    uint64_t deadline_ms = 0;
    bool quick = false, json_out = false, verify = true,
         send_shutdown = true, slo = false, obs = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
            continue;
        }
        if (a == "--slo") {
            slo = true;
            continue;
        }
        if (a == "--obs") {
            obs = true;
            continue;
        }
        if (a == "--json-out") {
            json_out = true;
            continue;
        }
        if (a == "--no-verify") {
            verify = false;
            continue;
        }
        if (a == "--no-shutdown") {
            send_shutdown = false;
            continue;
        }
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 2;
        }
        const bool known = a == "--spawn" || a == "--connect" ||
                           a == "--replicas" || a == "--policy" ||
                           a == "--serve-bin" || a == "--requests" ||
                           a == "--concurrency" || a == "--seed" ||
                           a == "--rate" || a == "--scenario" ||
                           a == "--faults" || a == "--stall-reads" ||
                           a == "--kernels" || a == "--deadline-ms" ||
                           a == "--cost-model" || a == "--catalog" ||
                           a == "--model" || a == "--trace-out";
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
        if (a == "--spawn")
            spawn_cmd = v;
        else if (a == "--connect")
            ok = parseIntFlag(a, v, 1, 65535, connect_port);
        else if (a == "--replicas")
            ok = parseIntFlag(a, v, 1, 64, replicas);
        else if (a == "--policy")
            policy_arg = v;
        else if (a == "--serve-bin")
            serve_bin = v;
        else if (a == "--scenario")
            scenario_arg = v;
        else if (a == "--catalog")
            catalog_arg = v;
        else if (a == "--model")
            model_arg = v;
        else if (a == "--faults")
            faults_arg = v;
        else if (a == "--stall-reads")
            ok = parseIntFlag(a, v, 1, 60000, stall_reads);
        else if (a == "--kernels") {
            std::string err;
            ok = setKernels(v, &err);
            if (!ok)
                std::fprintf(stderr, "--kernels: %s\n", err.c_str());
        }
        else if (a == "--requests")
            ok = parseSizeFlag(a, v, 1, 1 << 16, requests);
        else if (a == "--concurrency")
            ok = parseSizeFlag(a, v, 1, 256, concurrency);
        else if (a == "--seed")
            ok = parseU64Flag(a, v, 0, ~0ull, seed);
        else if (a == "--deadline-ms")
            ok = parseU64Flag(a, v, 1, kMaxDeadlineMs, deadline_ms);
        else if (a == "--cost-model")
            cost_model_path = v;
        else if (a == "--trace-out")
            trace_out = v;
        else if (a == "--rate") {
            long long rps = 0; // whole requests/s only
            ok = parseIntFlag(a, v, 1, 100000, rps);
            rate = static_cast<double>(rps);
        }
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }
    const int targets = (spawn_cmd.empty() ? 0 : 1) +
                        (connect_port != 0 ? 1 : 0) +
                        (replicas != 0 ? 1 : 0) +
                        (scenario_arg.empty() ? 0 : 1) +
                        (catalog_arg.empty() ? 0 : 1) +
                        (slo ? 1 : 0) + (obs ? 1 : 0);
    if (targets != 1) {
        std::fprintf(stderr,
                     "exactly one of --spawn / --connect / "
                     "--replicas / --scenario / --catalog / --slo / "
                     "--obs is required\n");
        usage(argv[0]);
        return 2;
    }
    if (requests == 0)
        requests = quick ? 24 : 48;

    // Client tracing: request root spans from this process, flushed
    // to `trace_out` on every exit path (the destructor runs after
    // whichever mode handler returns).
    struct TraceFlusher
    {
        std::string path;
        ~TraceFlusher()
        {
            obs::Tracer &tracer = obs::Tracer::instance();
            if (path.empty() || !tracer.enabled())
                return;
            if (tracer.flush())
                std::fprintf(
                    stderr,
                    "ta_loadgen: wrote %llu span(s) to %s (%llu "
                    "dropped)\n",
                    static_cast<unsigned long long>(
                        tracer.spanCount()),
                    path.c_str(),
                    static_cast<unsigned long long>(
                        tracer.dropped()));
            else
                std::fprintf(stderr,
                             "ta_loadgen: failed to write trace "
                             "file %s\n",
                             path.c_str());
        }
    } trace_flusher;
    if (!trace_out.empty()) {
        obs::Tracer::instance().enable(trace_out, "ta_loadgen");
        trace_flusher.path = trace_out;
    }

    FaultPlan faults;
    if (!faults_arg.empty()) {
        std::string err;
        if (!parseFaultSpec(faults_arg, faults, err)) {
            std::fprintf(stderr, "--faults: %s\n", err.c_str());
            return 2;
        }
        if (replicas == 0 && scenario_arg.empty()) {
            std::fprintf(stderr,
                         "--faults requires cluster mode "
                         "(--replicas)\n");
            return 2;
        }
    }

    if (slo) {
        if (serve_bin.empty())
            serve_bin = defaultServeBinary(argv[0]);
        return runSloMode(serve_bin, requests, seed, quick, json_out,
                          verify, rate, deadline_ms, cost_model_path);
    }

    if (obs) {
        if (serve_bin.empty())
            serve_bin = defaultServeBinary(argv[0]);
        return runObsMode(serve_bin, requests, concurrency, seed,
                          quick, json_out, verify);
    }

    if (!catalog_arg.empty()) {
        if (serve_bin.empty())
            serve_bin = defaultServeBinary(argv[0]);
        return runStorageMode(serve_bin, catalog_arg, model_arg,
                              requests, concurrency, seed, quick,
                              json_out, verify);
    }

    if (!scenario_arg.empty()) {
        if (scenario_arg == "list") {
            for (const std::string &name : scenarioNames())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        std::vector<std::string> names;
        if (scenario_arg == "all") {
            names = scenarioNames();
        } else {
            size_t start = 0;
            while (start < scenario_arg.size()) {
                size_t end = scenario_arg.find(',', start);
                if (end == std::string::npos)
                    end = scenario_arg.size();
                if (end > start)
                    names.push_back(
                        scenario_arg.substr(start, end - start));
                start = end + 1;
            }
        }
        if (names.empty()) {
            std::fprintf(stderr, "--scenario: no names given\n");
            return 2;
        }
        if (serve_bin.empty())
            serve_bin = defaultServeBinary(argv[0]);
        return runScenarioMode(serve_bin, names, seed, quick,
                               json_out, verify);
    }

    if (replicas > 0) {
        std::vector<RoutePolicy> policies;
        if (policy_arg == "all") {
            policies = {RoutePolicy::RoundRobin,
                        RoutePolicy::LeastOutstanding,
                        RoutePolicy::Affinity};
        } else {
            RoutePolicy p;
            if (!parseRoutePolicy(policy_arg, p)) {
                std::fprintf(stderr,
                             "--policy: expected round_robin, "
                             "least_outstanding, affinity or all, "
                             "got '%s'\n",
                             policy_arg.c_str());
                return 2;
            }
            policies = {p};
        }
        if (serve_bin.empty())
            serve_bin = defaultServeBinary(argv[0]);
        if (rate > 0)
            std::fprintf(stderr,
                         "ta_loadgen: --rate is ignored in cluster "
                         "mode\n");
        return runClusterMode(serve_bin, static_cast<int>(replicas),
                              policies, requests, concurrency, seed,
                              quick, json_out, verify, faults,
                              trace_out);
    }

    pid_t child = -1;
    const int fd =
        !spawn_cmd.empty()
            ? spawnServer(spawn_cmd, child)
            : connectTcp(static_cast<uint16_t>(connect_port));
    if (fd < 0)
        return 1;

    int rc = 0;
    {
        ServiceClient client(fd, static_cast<int>(stall_reads));
        const CallFn call = clientCall(client);
        std::vector<ServiceRequest> trace =
            buildTrace(seed, requests, quick);
        // --deadline-ms stamps every trace request; a planned server
        // then tracks deadline_met/deadline_misses (and sheds any
        // request its cost model says can never make it).
        if (deadline_ms > 0)
            for (ServiceRequest &r : trace)
                r.deadlineMs = deadline_ms;

        // Warmup: bring the plan cache and engines to steady state so
        // the serial and batched phases measure dispatch, not cold
        // caches (real serving is warm; a cold run is the restart
        // case, covered by --plan-cache persistence).
        std::fprintf(stderr,
                     "ta_loadgen: %zu requests/phase, warmup...\n",
                     requests);
        runClosedLoop(call, trace, std::max<size_t>(4, concurrency),
                      nullptr);

        std::vector<ServiceRequest> serial_sent, batched_sent,
            open_sent;
        const PhaseResult serial =
            runClosedLoop(call, trace, 1, &serial_sent);
        reportClosedLoop(1, serial);
        const PhaseResult batched =
            runClosedLoop(call, trace, concurrency, &batched_sent);
        reportClosedLoop(concurrency, batched);
        PhaseResult open;
        if (rate > 0) {
            open = runOpenLoop(call, trace, rate, &open_sent);
            std::fprintf(
                stderr,
                "  open loop, %.0f req/s offered: %6.1f req/s, "
                "p50/p95/p99 %.2f/%.2f/%.2f ms, %llu errors\n",
                rate, open.rps, open.latencyMs.p50, open.latencyMs.p95,
                open.latencyMs.p99,
                static_cast<unsigned long long>(open.errors));
        }

        // Closed-loop phases must not see errors: concurrency never
        // exceeds the server's queue capacity, so any error line is a
        // dead connection or an engine failure. (Open-loop errors can
        // be legitimate admission rejections under offered overload;
        // they are reported but don't fail the run.)
        if (serial.errors + batched.errors > 0) {
            std::fprintf(stderr,
                         "ta_loadgen: %llu closed-loop error "
                         "response(s)\n",
                         static_cast<unsigned long long>(
                             serial.errors + batched.errors));
            rc = 1;
        }

        uint64_t mismatches = 0;
        if (verify) {
            Verifier verifier;
            mismatches +=
                verifyPhase(verifier, serial_sent, serial, "serial");
            mismatches += verifyPhase(verifier, batched_sent, batched,
                                      "batched");
            if (rate > 0)
                mismatches +=
                    verifyPhase(verifier, open_sent, open, "open");
            std::fprintf(stderr,
                         "  verify: %llu mismatches (byte-identity "
                         "vs standalone serial runs)\n",
                         static_cast<unsigned long long>(mismatches));
            if (mismatches > 0)
                rc = 1;
        }

        const std::map<std::string, std::string> sstats =
            fetchStats(call);
        auto sstat = [&](const char *key) {
            return statOf(sstats, key);
        };
        std::fprintf(
            stderr,
            "  server: windows %s (max %s, batched %s), cache hit "
            "rate %s, plans loaded %s, rejected %s\n",
            sstat("windows").c_str(), sstat("max_window").c_str(),
            sstat("batched_requests").c_str(),
            sstat("cache_hit_rate").c_str(),
            sstat("plans_loaded").c_str(), sstat("rejected").c_str());

        if (json_out) {
            BenchJson json("service_throughput");
            json.add("benchmark", std::string("service_throughput"));
            json.add("schema_version", static_cast<uint64_t>(2));
            json.add("quick", static_cast<uint64_t>(quick ? 1 : 0));
            json.add("requests_per_phase",
                     static_cast<uint64_t>(requests));
            json.add("concurrency",
                     static_cast<uint64_t>(concurrency));
            json.add("serial_rps", serial.rps);
            json.add("serial_p50_ms", serial.latencyMs.p50);
            json.add("serial_p95_ms", serial.latencyMs.p95);
            json.add("serial_p99_ms", serial.latencyMs.p99);
            json.add("batched_rps", batched.rps);
            json.add("batched_p50_ms", batched.latencyMs.p50);
            json.add("batched_p95_ms", batched.latencyMs.p95);
            json.add("batched_p99_ms", batched.latencyMs.p99);
            json.add("batch_speedup", batched.rps / serial.rps);
            if (rate > 0) {
                json.add("openloop_offered_rps", rate);
                json.add("openloop_achieved_rps", open.rps);
                json.add("openloop_p50_ms", open.latencyMs.p50);
                json.add("openloop_p95_ms", open.latencyMs.p95);
                json.add("openloop_p99_ms", open.latencyMs.p99);
                json.add("openloop_errors", open.errors);
            }
            json.add("errors", serial.errors + batched.errors);
            json.add("verified",
                     std::string(!verify          ? "skipped"
                                 : mismatches == 0 ? "true"
                                                   : "false"));
            json.add("verify_mismatches", mismatches);
            auto num = [&](const char *key) {
                return std::strtod(sstat(key).c_str(), nullptr);
            };
            json.add("server_windows",
                     static_cast<uint64_t>(num("windows")));
            json.add("server_max_window",
                     static_cast<uint64_t>(num("max_window")));
            json.add("server_batched_requests",
                     static_cast<uint64_t>(num("batched_requests")));
            json.add("server_cache_hit_rate", num("cache_hit_rate"));
            json.add("server_plans_loaded",
                     static_cast<uint64_t>(num("plans_loaded")));
            json.add("server_rejected",
                     static_cast<uint64_t>(num("rejected")));
            // Kernel backends: ours (the in-process verify oracle)
            // and the server's, as reported by its stats op.
            json.add("kernel_arch", std::string(kernelArch()));
            const std::string server_arch = sstat("kernel_arch");
            // statOf defaults missing keys to "0" (pre-kernel server).
            json.add("server_kernel_arch",
                     server_arch == "0" || server_arch.empty()
                         ? std::string("unknown")
                         : server_arch);
            const std::string path = json.write();
            if (!path.empty())
                std::fprintf(stderr, "wrote %s\n", path.c_str());
        }

        if (send_shutdown) {
            ServiceRequest req;
            req.op = "shutdown";
            req.id = g_next_id.fetch_add(1);
            client.call(req).get();
        }
    } // closes the connection, joins the reader

    if (child > 0) {
        int status = 0;
        ::waitpid(child, &status, 0);
        if (send_shutdown &&
            (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
            std::fprintf(stderr,
                         "ta_loadgen: server exited abnormally "
                         "(status %d)\n",
                         status);
            rc = rc == 0 ? 1 : rc;
        }
    }
    return rc;
}
