/**
 * @file
 * Shared pieces of the repo benchmark (ta_perfbench): run options,
 * metric records, timing helpers, the output checks that
 * judge every operation, and the spawned-server plumbing the serve
 * workloads drive. See README.md in this directory for the workloads
 * and metrics.
 */

#ifndef TA_PERFBENCH_H
#define TA_PERFBENCH_H

#include <sys/resource.h>
#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/accelerator.h"
#include "core/transitive_gemm.h"
#include "quant/matrix.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string binDir;  ///< holds ta_serve, ta_pack and ta_trace
    std::string workDir; ///< per-run scratch directory (removed at exit)
    /**
     * Deliberately alter one result before it is checked, to show the
     * checks trip: "closed", "lossless" or "identity".
     */
    std::string tamper;
    int nproc = 1;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** What a workload hands back to main. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics of the untraced timed phase. */
    std::vector<Metric> endToEnd;
    /** Traced run only: the same metrics from the traced phase. */
    std::vector<Metric> tracedEndToEnd;
    /** Traced run only: per-layer metrics measured by this workload. */
    std::vector<Metric> perLayer;
};

Result runSuiteLlama(const Options &opt);
Result runServeSynth(const Options &opt);
Result runServeCatalog(const Options &opt);

// ---- timing and statistics ------------------------------------------

/** Steady-clock seconds. */
double now();

/** Peak RSS of this process in MiB. */
double selfPeakRssMb();

/** Mixes a run seed and a stream index into a 64-bit seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * The five end-to-end metrics from the set-up repetitions, the timed
 * operations' latencies, the timed phase's duration and a peak RSS.
 */
std::vector<Metric> endToEndMetrics(const std::vector<double> &setupS,
                                    const std::vector<double> &latMs,
                                    double timedS, double peakRssMb);

/** Fewest timed operations per run: 10 lie beyond the 95th percentile. */
constexpr size_t kMinTimedOps = 200;

/**
 * Whole rounds of one timed phase. A run replays a fixed amount of
 * work, not a fixed time: enough rounds to last about `seconds` at
 * `nominalOpsPerS` (the rate of the reference host in README.md), and
 * at least kMinTimedOps operations.
 */
size_t timedRounds(double seconds, double nominalOpsPerS,
                   size_t opsPerRound);

// ---- output checks ----------------------------------------------------

/**
 * Attempted operations and the ones that failed a check. An operation
 * fails once however many of its checks trip.
 */
class Ledger
{
  public:
    explicit Ledger(std::string workload) : workload_(std::move(workload))
    {}

    /** Count one more operation; returns its index. */
    uint64_t add() { return attempted_++; }
    void fail(uint64_t op, const std::string &why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_.size(); }

  private:
    std::string workload_;
    uint64_t attempted_ = 0;
    std::set<uint64_t> failed_;
};

/** The simulated numbers of one layer that the closed forms bind. */
struct LayerNumbers
{
    uint64_t cycles = 0;
    uint64_t computeCycles = 0;
    uint64_t dramCycles = 0;
    uint64_t dramBytes = 0;
    double density = 0;
};

LayerNumbers numbersOf(const ta::LayerRun &run);

/**
 * Closed forms every layer result must satisfy, derived from the
 * accelerator's DRAM model (25.6 B/cycle) rather than taken from it:
 * dram_bytes = n*k*wbits/8 + k*m*abits/8 + 4*n*m,
 * dram_cycles = ceil(dram_bytes / 25.6), cycles = max(compute, dram),
 * and 0 < density <= 1.
 */
bool checkClosedForm(const ta::GemmShape &s, int wbits, int abits,
                     const LayerNumbers &got, std::string *why);

/** Sub-tile-sized top-left slice: 256/wbits rows by 64 columns. */
ta::MatI32 subTileSlice(const ta::MatI32 &w, int wbits);

/**
 * The sub-tile slice of the representative tensor realLikeWeights
 * (rows x cols, wbits, seed) builds, synthesized from its leading rows
 * only: the Gaussian stream is row-major and quantization groups run
 * along a row, so the leading rows do not depend on the row count.
 */
ta::MatI32 tensorSlice(size_t cols, int wbits, uint64_t seed);

/**
 * Losslessness: TransitiveGemmEngine::run on `w` against int8
 * activations must equal a plain int64 GEMM written here.
 */
bool checkLossless(const ta::TransitiveGemmEngine &engine,
                   const ta::MatI32 &w, int wbits, uint64_t seed,
                   bool tamper, std::string *why);

/** Engine configuration used by the losslessness checks. */
ta::TransitiveGemmConfig losslessEngineConfig();

// ---- spawned processes -------------------------------------------------

/**
 * A child process tied to the benchmark's lifetime: it gets
 * PR_SET_PDEATHSIG(SIGKILL) before exec, is registered so that signal
 * and exit handlers can kill it, and is killed and reaped by the
 * destructor if still running. With `socket` set, its stdin and stdout
 * are one end of a socketpair whose other end is fd(); otherwise its
 * stdout goes to `logPath`. Its stderr always goes to `logPath`.
 */
class ChildProcess
{
  public:
    ChildProcess() = default;
    ~ChildProcess() { kill(); }
    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    bool start(const std::vector<std::string> &argv, bool socket,
               const std::string &logPath, std::string *err);
    int fd() const { return fd_; }
    /** Wait up to `timeoutS` for exit; SIGKILL past it. True on a
     *  clean exit with status 0. */
    bool wait(double timeoutS, struct rusage *ru = nullptr);
    void kill();

  private:
    pid_t pid_ = -1;
    int fd_ = -1;
};

/** Installs the signal, exit and terminate handlers that kill every
 *  registered child. Call once from main before spawning. */
void installChildReaper();

/** Run a tool to completion, its output appended to `logPath`; true
 *  on exit status 0. */
bool runTool(const std::vector<std::string> &argv,
             const std::string &logPath, double timeoutS, std::string *err);

/**
 * One pipelined protocol connection: any number of client threads
 * call() concurrently; a reader thread hands each response line to the
 * caller waiting on its id.
 */
class Connection
{
  public:
    explicit Connection(int fd);
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send `line` (no newline) and wait for the reply carrying `id`.
     *  Returns false when the connection died first. */
    bool call(uint64_t id, const std::string &line, std::string *reply,
              double *sentAt, double *recvAt);

  private:
    struct Slot
    {
        std::string line;
        double recvAt = 0;
        bool done = false;
    };
    void readLoop();

    int fd_;
    std::mutex mu_; ///< guards pending_, dead_ and every Slot
    std::condition_variable cv_;
    std::unordered_map<uint64_t, Slot *> pending_;
    bool dead_ = false;
    std::mutex writeMu_;
    std::thread reader_;
};

} // namespace perfbench

#endif // TA_PERFBENCH_H
