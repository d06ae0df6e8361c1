/**
 * @file
 * ta_perfbench: the repo benchmark driver. Runs one workload and prints
 * as its last stdout line one JSON object with `correct`, `attempted`,
 * `failed` and `metrics` -- the end-to-end metrics, or with --trace 1
 * the per-layer metrics (preceded by the tracing overhead of every
 * end-to-end metric). Exits 1 when any output check fails.
 *
 * Usage:
 *   ta_perfbench --workload suite_llama|serve_synth|serve_catalog
 *                --seed N --seconds S --trace 0|1
 *                --bin-dir DIR --work-dir DIR
 *                [--tamper closed|lossless|identity] [--rest S]
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "perfbench.h"

using namespace perfbench;

namespace {

/**
 * Seconds a run idles before it starts any work (--rest). On a shared
 * virtual machine, sustained load makes the hypervisor steal CPU time
 * from the next tens of seconds; idling first keeps one run's speed
 * from depending on the load of the run before it.
 */
constexpr uint64_t kDefaultRestS = 15;

/** Every per-layer metric, in BENCHMARK.json order. A workload that
 *  does not exercise a layer reports it as 0. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"workloads.synth_ms", "ms"},     {"quant.quantize_ms", "ms"},
    {"quant.slice_ms", "ms"},         {"core.run_layer_ms", "ms"},
    {"core.sub_tiles", "count"},      {"core.stage_coverage", "ratio"},
    {"exec.plan_lookups", "count"},   {"exec.plan_hit_rate", "ratio"},
    {"exec.busy_share", "ratio"},     {"exec.cache_hit_rate", "ratio"},
    {"service.queue_ms", "ms"},       {"service.mean_window", "count"},
    {"service.exec_ms", "ms"},        {"service.pack_ms", "ms"},
    {"service.serialize_ms", "ms"},   {"service.transport_ms", "ms"},
    {"service.parse_us", "us"},       {"service.response_us", "us"},
    {"storage.pin_ms", "ms"},         {"storage.buffer_hit_rate", "ratio"},
    {"storage.evictions", "count"},   {"storage.open_ms", "ms"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ta_perfbench: %s\n"
                 "usage: ta_perfbench --workload suite_llama|serve_synth|"
                 "serve_catalog --seed N --seconds S --trace 0|1\n"
                 "                    --bin-dir DIR --work-dir DIR "
                 "[--tamper closed|lossless|identity] [--rest S]\n",
                 why);
    return 2;
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

bool
parseUnsigned(const std::string &s, uint64_t lo, uint64_t hi, uint64_t *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19)
        return false;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return *out >= lo && *out <= hi;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        args[key] = argv[i + 1];
    }
    uint64_t seconds = 0, trace = 0, rest = kDefaultRestS;
    for (const char *required :
         {"--workload", "--seed", "--seconds", "--trace", "--bin-dir",
          "--work-dir"})
        if (args.count(required) == 0)
            return usage((std::string("missing ") + required).c_str());
    for (const auto &[key, value] : args) {
        bool ok = true;
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            ok = parseUnsigned(value, 0, ~0ull, &opt.seed);
        else if (key == "--seconds")
            ok = parseUnsigned(value, 1, 3600, &seconds);
        else if (key == "--trace")
            ok = parseUnsigned(value, 0, 1, &trace);
        else if (key == "--rest")
            ok = parseUnsigned(value, 0, 120, &rest);
        else if (key == "--bin-dir")
            opt.binDir = value;
        else if (key == "--work-dir")
            opt.workDir = value;
        else if (key == "--tamper")
            ok = value == "closed" || value == "lossless" ||
                 value == "identity";
        else
            return usage(("unknown flag " + key).c_str());
        if (!ok)
            return usage(("bad value for " + key).c_str());
        if (key == "--tamper")
            opt.tamper = value;
    }
    opt.seconds = static_cast<double>(seconds);
    opt.trace = trace == 1;
    opt.nproc = nproc();

    Result (*run)(const Options &) = nullptr;
    if (opt.workload == "suite_llama")
        run = runSuiteLlama;
    else if (opt.workload == "serve_synth")
        run = runServeSynth;
    else if (opt.workload == "serve_catalog")
        run = runServeCatalog;
    else
        return usage(("unknown workload " + opt.workload).c_str());

    std::this_thread::sleep_for(std::chrono::seconds(rest));
    installChildReaper();
    std::error_code ec;
    std::filesystem::remove_all(opt.workDir, ec);
    if (!std::filesystem::create_directories(opt.workDir, ec)) {
        std::fprintf(stderr, "ta_perfbench: cannot create %s\n",
                     opt.workDir.c_str());
        return 1;
    }
    const Result res = run(opt);
    std::filesystem::remove_all(opt.workDir, ec);

    std::vector<Metric> metrics = res.endToEnd;
    if (opt.trace) {
        for (size_t i = 0; i < res.endToEnd.size(); ++i) {
            const Metric &u = res.endToEnd[i];
            const Metric &t = res.tracedEndToEnd[i];
            std::printf("tracing overhead %-12s %+.6g %s (untraced %.6g, "
                        "traced %.6g)\n",
                        u.name.c_str(), t.value - u.value, u.unit.c_str(),
                        u.value, t.value);
        }
        metrics.clear();
        for (const auto &[name, unit] : kPerLayer) {
            Metric m{name, unit, 0};
            for (const Metric &got : res.perLayer)
                if (got.name == name)
                    m.value = got.value;
            metrics.push_back(m);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    printMetrics(metrics);
    std::printf("}}\n");
    return res.failed == 0 ? 0 : 1;
}
