#include "perfbench.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/stats.h"
#include "service/line_reader.h"
#include "workloads/generators.h"

namespace perfbench {

// ---- timing and statistics ------------------------------------------

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams never collide
    // for one seed, and nearby seeds give unrelated streams.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<Metric>
endToEndMetrics(const std::vector<double> &setupS,
                const std::vector<double> &latMs, double timedS,
                double peakRssMb)
{
    return {{"setup_s", "s", ta::percentileOf(setupS, 50)},
            {"ops_per_s", "1/s", latMs.size() / timedS},
            {"lat_p50_ms", "ms", ta::percentileOf(latMs, 50)},
            {"lat_p95_ms", "ms", ta::percentileOf(latMs, 95)},
            {"peak_rss_mb", "MiB", peakRssMb}};
}

size_t
timedRounds(double seconds, double nominalOpsPerS, size_t opsPerRound)
{
    const size_t atLeast = (kMinTimedOps + opsPerRound - 1) / opsPerRound;
    const size_t nominal = static_cast<size_t>(
        std::llround(seconds * nominalOpsPerS / opsPerRound));
    return std::max(atLeast, nominal);
}

// ---- output checks ----------------------------------------------------

void
Ledger::fail(uint64_t op, const std::string &why)
{
    failed_.insert(op);
    std::fprintf(stderr, "%s: operation %llu failed a check: %s\n",
                 workload_.c_str(), static_cast<unsigned long long>(op),
                 why.c_str());
}

LayerNumbers
numbersOf(const ta::LayerRun &run)
{
    return {run.cycles, run.computeCycles, run.dramCycles, run.dramBytes,
            run.sparsity.totalDensity()};
}

bool
checkClosedForm(const ta::GemmShape &s, int wbits, int abits,
                const LayerNumbers &got, std::string *why)
{
    const uint64_t bytes = s.n * s.k * wbits / 8 + s.k * s.m * abits / 8 +
                           4 * s.n * s.m;
    // ceil(bytes / 25.6) in integers: 25.6 = 256 / 10.
    const uint64_t dram_cycles = (bytes * 10 + 255) / 256;
    char buf[256];
    if (got.dramBytes != bytes || got.dramCycles != dram_cycles) {
        std::snprintf(buf, sizeof(buf),
                      "dram %llu B / %llu cycles, closed form %llu / %llu",
                      static_cast<unsigned long long>(got.dramBytes),
                      static_cast<unsigned long long>(got.dramCycles),
                      static_cast<unsigned long long>(bytes),
                      static_cast<unsigned long long>(dram_cycles));
    } else if (got.cycles != std::max(got.computeCycles, got.dramCycles)) {
        std::snprintf(buf, sizeof(buf),
                      "cycles %llu != max(compute %llu, dram %llu)",
                      static_cast<unsigned long long>(got.cycles),
                      static_cast<unsigned long long>(got.computeCycles),
                      static_cast<unsigned long long>(got.dramCycles));
    } else if (!(got.density > 0 && got.density <= 1)) {
        std::snprintf(buf, sizeof(buf), "density %g outside (0, 1]",
                      got.density);
    } else {
        return true;
    }
    *why = buf;
    return false;
}

ta::MatI32
subTileSlice(const ta::MatI32 &w, int wbits)
{
    // One sub-tile: at most 256 sliced rows (256 / wbits source rows)
    // by 8 TransRow chunks of T = 8 columns.
    const size_t rows = std::min<size_t>(w.rows(), 256 / wbits);
    const size_t cols = std::min<size_t>(w.cols(), 64);
    ta::MatI32 s(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            s.at(r, c) = w.at(r, c);
    return s;
}

ta::MatI32
tensorSlice(size_t cols, int wbits, uint64_t seed)
{
    return subTileSlice(
        ta::realLikeWeights(256 / wbits, cols, wbits, seed), wbits);
}

ta::TransitiveGemmConfig
losslessEngineConfig()
{
    ta::TransitiveGemmConfig cfg;
    cfg.threads = 1;
    return cfg;
}

bool
checkLossless(const ta::TransitiveGemmEngine &engine, const ta::MatI32 &w,
              int wbits, uint64_t seed, bool tamper, std::string *why)
{
    const ta::MatI32 in =
        ta::randomActivations(w.cols(), 16, 8, mixSeed(seed, 77));
    ta::MatI64 got = engine.run(w, wbits, in).output;
    if (tamper)
        got.at(0, 0) += 1;
    if (got.rows() != w.rows() || got.cols() != in.cols()) {
        *why = "lossless: output shape differs from the GEMM's";
        return false;
    }
    for (size_t n = 0; n < w.rows(); ++n) {
        for (size_t m = 0; m < in.cols(); ++m) {
            int64_t want = 0;
            for (size_t k = 0; k < w.cols(); ++k)
                want += static_cast<int64_t>(w.at(n, k)) * in.at(k, m);
            if (got.at(n, m) != want) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "lossless: out[%zu][%zu] = %lld, plain "
                              "GEMM %lld",
                              n, m, static_cast<long long>(got.at(n, m)),
                              static_cast<long long>(want));
                *why = buf;
                return false;
            }
        }
    }
    return true;
}

// ---- spawned processes -------------------------------------------------

namespace {

constexpr size_t kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void
registerChild(pid_t pid)
{
    for (auto &slot : g_children) {
        pid_t expected = 0;
        if (slot.compare_exchange_strong(expected, pid))
            return;
    }
    // More children than slots would escape the reapers: refuse.
    ::kill(pid, SIGKILL);
    std::fprintf(stderr, "perfbench: too many live children\n");
    std::_Exit(3);
}

void
unregisterChild(pid_t pid)
{
    for (auto &slot : g_children) {
        pid_t expected = pid;
        if (slot.compare_exchange_strong(expected, 0))
            return;
    }
}

void
killAllChildren()
{
    for (auto &slot : g_children) {
        const pid_t pid = slot.load();
        if (pid > 0)
            ::kill(pid, SIGKILL);
    }
}

void
onFatalSignal(int sig)
{
    killAllChildren();
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

} // namespace

void
installChildReaper()
{
    for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT, SIGABRT, SIGSEGV,
                    SIGBUS, SIGFPE})
        ::signal(sig, onFatalSignal);
    // A server that dies mid-write must surface as a failed call, not
    // kill the benchmark.
    ::signal(SIGPIPE, SIG_IGN);
    std::atexit(killAllChildren);
    std::set_terminate([] {
        killAllChildren();
        std::abort();
    });
}

bool
ChildProcess::start(const std::vector<std::string> &argv, bool socket,
                    const std::string &logPath, std::string *err)
{
    int sv[2] = {-1, -1};
    if (socket &&
        ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
        *err = "socketpair failed";
        return false;
    }
    // Everything the child needs is prepared before fork: between fork
    // and exec only async-signal-safe calls run.
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        *err = "fork failed";
        if (socket) {
            ::close(sv[0]);
            ::close(sv[1]);
        }
        return false;
    }
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127); // the benchmark died before prctl took hold
        const int log =
            ::open(logPath.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (socket) {
            ::dup2(sv[1], STDIN_FILENO);
            ::dup2(sv[1], STDOUT_FILENO);
        } else {
            ::dup2(::open("/dev/null", O_RDONLY | O_CLOEXEC), STDIN_FILENO);
            ::dup2(log, STDOUT_FILENO);
        }
        ::dup2(log, STDERR_FILENO);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    registerChild(pid);
    pid_ = pid;
    if (socket) {
        ::close(sv[1]);
        fd_ = sv[0];
    }
    return true;
}

bool
ChildProcess::wait(double timeoutS, struct rusage *ru)
{
    if (pid_ <= 0)
        return false;
    const double deadline = now() + timeoutS;
    int status = 0;
    struct rusage local {};
    while (true) {
        const pid_t r = ::wait4(pid_, &status, WNOHANG, &local);
        if (r == pid_)
            break;
        if (r < 0 || now() > deadline) {
            kill();
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    unregisterChild(pid_);
    pid_ = -1;
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (ru != nullptr)
        *ru = local;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void
ChildProcess::kill()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        unregisterChild(pid_);
        pid_ = -1;
    }
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
runTool(const std::vector<std::string> &argv, const std::string &logPath,
        double timeoutS, std::string *err)
{
    ChildProcess p;
    if (!p.start(argv, false, logPath, err))
        return false;
    if (!p.wait(timeoutS)) {
        *err = argv[0] + " failed (see " + logPath + ")";
        return false;
    }
    return true;
}

Connection::Connection(int fd) : fd_(fd)
{
    reader_ = std::thread([this] { readLoop(); });
}

Connection::~Connection()
{
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
}

bool
Connection::call(uint64_t id, const std::string &line, std::string *reply,
                 double *sentAt, double *recvAt)
{
    Slot slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (dead_)
            return false;
        pending_[id] = &slot;
    }
    const std::string out = line + "\n";
    {
        std::lock_guard<std::mutex> lock(writeMu_);
        *sentAt = now();
        size_t off = 0;
        while (off < out.size()) {
            const ssize_t n =
                ::write(fd_, out.data() + off, out.size() - off);
            if (n <= 0)
                break; // the reader reports the dead peer
            off += static_cast<size_t>(n);
        }
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return slot.done || dead_; });
    pending_.erase(id);
    if (!slot.done)
        return false;
    *reply = std::move(slot.line);
    *recvAt = slot.recvAt;
    return true;
}

void
Connection::readLoop()
{
    ta::LineReader reader(fd_);
    std::string line;
    bool terminated = true;
    while (reader.next(line, terminated) && terminated) {
        const double t = now();
        // Every protocol response opens with {"id":N, -- anything else
        // is unsolicited, and its caller's wait reports the miss.
        if (line.compare(0, 6, "{\"id\":") != 0)
            continue;
        const uint64_t id = std::strtoull(line.c_str() + 6, nullptr, 10);
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = pending_.find(id);
        if (it == pending_.end())
            continue;
        it->second->line = std::move(line);
        it->second->recvAt = t;
        it->second->done = true;
        cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    cv_.notify_all();
}

} // namespace perfbench
