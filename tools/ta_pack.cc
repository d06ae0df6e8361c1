/**
 * @file
 * ta_pack: compile workload suites into ta-segment v1 files — the
 * storage tier's write path. Each suite becomes one catalog model
 * whose layer planes are the exact tensors the engine would
 * synthesize at serve time (synthesizePackedPlane under the runShape
 * repr cap, seeds following the suite_runner layerSeed rule) — the
 * same function the engine's weight memo packs with. Packing is
 * deterministic: the same suites, seed, wbits and repr caps produce
 * byte-identical files, pinned by the CI re-pack `cmp`.
 *
 * Usage:
 *   ta_pack --out FILE --suites A[,B...] [--wbits N] [--seed S]
 *           [--repr-rows N] [--repr-cols N] [--verify]
 *   ta_pack --verify-file FILE [--list]
 *   ta_pack --list-suites
 *
 * --verify (and --verify-file) re-expand every packed plane against
 * fresh synthesis and byte-compare, and re-hash every data page
 * against the catalog's checksum table — the full
 * what-you-packed-is-what-you-serve audit.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.h"
#include "storage/buffer_manager.h"
#include "storage/segment_format.h"
#include "workloads/generators.h"
#include "workloads/llama.h"
#include "workloads/resnet18.h"
#include "workloads/suite_runner.h"

using namespace ta;

namespace {

/** A small fixed suite for smoke tests and CI: shapes modest enough
 *  to pack + serve in seconds, still exercising the n > reprRows cap
 *  and ragged (non-multiple-of-8) column packing. */
WorkloadSuite
quickSuite()
{
    WorkloadSuite s;
    s.name = "quick";
    s.layers = {{"q_proj", {512, 512, 256}, 1, false},
                {"gate", {256, 1024, 128}, 1, false},
                {"down", {1024, 300, 64}, 1, false},
                {"head", {320, 768, 96}, 1, false}};
    return s;
}

/** Named suites a catalog can hold. Names are the model names. */
bool
suiteByName(const std::string &name, WorkloadSuite *out)
{
    if (name == "quick")
        *out = quickSuite();
    else if (name == "llama7b-fc")
        *out = llamaFcLayers(llama2_7b());
    else if (name == "llama7b-attn")
        *out = llamaAttentionLayers(llama2_7b());
    else if (name == "llama13b-fc")
        *out = llamaFcLayers(llama2_13b());
    else if (name == "llama8b-fc")
        *out = llamaFcLayers(llama3_8b());
    else if (name == "resnet18")
        *out = resnet18Layers();
    else
        return false;
    out->name = name;
    return true;
}

const char *kSuiteNames[] = {"quick",       "llama7b-fc",
                             "llama7b-attn", "llama13b-fc",
                             "llama8b-fc",   "resnet18"};

SegmentModelInput
buildModel(const WorkloadSuite &suite, int wbits, uint64_t base_seed,
           uint64_t repr_rows, uint64_t repr_cols)
{
    SegmentModelInput m;
    m.name = suite.name;
    m.baseSeed = base_seed;
    m.wbits = wbits;
    for (size_t i = 0; i < suite.layers.size(); ++i) {
        const GemmLayerDesc &l = suite.layers[i];
        SegmentEntryInput e;
        e.layer = l.name;
        e.n = l.shape.n;
        e.k = l.shape.k;
        e.m = l.shape.m;
        e.seed = layerSeed(base_seed, i);
        e.wbits = wbits;
        const auto [nr, kr] = reprDims(l.shape, repr_rows, repr_cols);
        e.reprRows = nr;
        e.reprCols = kr;
        e.packed = synthesizePackedPlane(nr, kr, wbits, e.seed).bytes;
        m.entries.push_back(std::move(e));
    }
    return m;
}

/** Re-expand every entry of an opened segment against fresh synthesis
 *  and re-hash every data page. Prints a per-model summary. */
bool
verifySegment(const SegmentFile &seg)
{
    bool ok = true;
    for (const CatalogModel &m : seg.models()) {
        uint64_t bytes = 0;
        for (const CatalogEntry &e : m.entries) {
            const std::vector<uint8_t> fresh =
                synthesizePackedPlane(e.reprRows, e.reprCols, e.wbits,
                                      e.seed)
                    .bytes;
            const uint8_t *stored = seg.pageData(e.firstPage);
            if (fresh.size() != e.dataBytes ||
                std::memcmp(fresh.data(), stored, fresh.size()) != 0) {
                std::fprintf(stderr,
                             "ta_pack: %s/%s: packed plane differs "
                             "from fresh synthesis\n",
                             m.name.c_str(), e.layer.c_str());
                ok = false;
            }
            for (uint64_t p = e.firstPage;
                 p < e.firstPage + e.pageCount; ++p) {
                if (fnv64(seg.pageData(p), kSegmentPageSize) !=
                    seg.pageFnv(p)) {
                    std::fprintf(stderr,
                                 "ta_pack: %s/%s: page %llu checksum "
                                 "mismatch\n",
                                 m.name.c_str(), e.layer.c_str(),
                                 static_cast<unsigned long long>(p));
                    ok = false;
                }
            }
            bytes += e.dataBytes;
        }
        std::fprintf(stderr,
                     "ta_pack: verified model '%s': %zu layers, "
                     "%llu plane bytes\n",
                     m.name.c_str(), m.entries.size(),
                     static_cast<unsigned long long>(bytes));
    }
    return ok;
}

void
listSegment(const SegmentFile &seg)
{
    for (const CatalogModel &m : seg.models()) {
        std::printf("model %s wbits=%d base_seed=%llu layers=%zu\n",
                    m.name.c_str(), m.wbits,
                    static_cast<unsigned long long>(m.baseSeed),
                    m.entries.size());
        for (const CatalogEntry &e : m.entries)
            std::printf(
                "  %s n=%llu k=%llu m=%llu seed=%llu repr=%llux%llu "
                "pages=%llu@%llu\n",
                e.layer.c_str(), static_cast<unsigned long long>(e.n),
                static_cast<unsigned long long>(e.k),
                static_cast<unsigned long long>(e.m),
                static_cast<unsigned long long>(e.seed),
                static_cast<unsigned long long>(e.reprRows),
                static_cast<unsigned long long>(e.reprCols),
                static_cast<unsigned long long>(e.pageCount),
                static_cast<unsigned long long>(e.firstPage));
    }
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --out FILE --suites A[,B...] [--wbits N] "
        "[--seed S]\n"
        "          [--repr-rows N] [--repr-cols N] [--verify]\n"
        "       %s --verify-file FILE [--list]\n"
        "       %s --list-suites\n"
        "  --out        segment file to write (atomic tmp+rename)\n"
        "  --suites     comma-separated suite names; each becomes one\n"
        "               catalog model\n"
        "  --wbits      weight bit width (default 4)\n"
        "  --seed       base seed; layer i uses seed+i (default 1)\n"
        "  --repr-rows  representative-row cap (default 256, the\n"
        "               runShape default; servers only match entries\n"
        "               packed at their own cap)\n"
        "  --repr-cols  representative-col cap (default 4096)\n"
        "  --verify     after writing, re-expand every plane against\n"
        "               fresh synthesis and re-hash every page\n"
        "  --verify-file  audit an existing segment the same way\n"
        "  --list       with --verify-file: print the catalog\n"
        "  --list-suites  print known suite names\n",
        argv0, argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path, suites_arg, verify_path;
    long long wbits = 4;
    uint64_t seed = 1;
    uint64_t repr_rows = kDefaultReprRows;
    uint64_t repr_cols = kDefaultReprCols;
    bool verify = false, list = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 2;
        }
        if (a == "--verify") {
            verify = true;
            continue;
        }
        if (a == "--list") {
            list = true;
            continue;
        }
        if (a == "--list-suites") {
            for (const char *s : kSuiteNames)
                std::printf("%s\n", s);
            return 0;
        }
        const bool known = a == "--out" || a == "--suites" ||
                           a == "--wbits" || a == "--seed" ||
                           a == "--repr-rows" || a == "--repr-cols" ||
                           a == "--verify-file";
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
        else if (a == "--suites")
            suites_arg = v;
        else if (a == "--verify-file")
            verify_path = v;
        else if (a == "--wbits")
            ok = parseIntFlag(a, v, 1, 16, wbits);
        else if (a == "--seed")
            ok = parseU64Flag(a, v, 0, ~uint64_t{0} / 2, seed);
        else if (a == "--repr-rows")
            ok = parseU64Flag(a, v, 1, 1u << 20, repr_rows);
        else if (a == "--repr-cols")
            ok = parseU64Flag(a, v, 1, 1u << 20, repr_cols);
        if (!ok) {
            usage(argv[0]);
            return 2;
        }
    }

    // ---- audit mode -------------------------------------------------
    if (!verify_path.empty()) {
        SegmentFile seg;
        std::string err;
        if (!seg.open(verify_path, &err)) {
            std::fprintf(stderr, "ta_pack: %s\n", err.c_str());
            return 1;
        }
        if (list)
            listSegment(seg);
        return verifySegment(seg) ? 0 : 1;
    }

    if (out_path.empty() || suites_arg.empty()) {
        usage(argv[0]);
        return 2;
    }

    // ---- pack -------------------------------------------------------
    std::vector<SegmentModelInput> models;
    size_t pos = 0;
    while (pos <= suites_arg.size()) {
        const size_t comma = suites_arg.find(',', pos);
        const std::string name =
            suites_arg.substr(pos, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - pos);
        pos = comma == std::string::npos ? suites_arg.size() + 1
                                         : comma + 1;
        WorkloadSuite suite;
        if (!suiteByName(name, &suite)) {
            std::fprintf(stderr,
                         "ta_pack: unknown suite '%s' (see "
                         "--list-suites)\n",
                         name.c_str());
            return 2;
        }
        models.push_back(
            buildModel(suite, static_cast<int>(wbits), seed,
                       repr_rows, repr_cols));
    }

    std::string err;
    if (!writeSegmentFile(out_path, models, &err)) {
        std::fprintf(stderr, "ta_pack: %s\n", err.c_str());
        return 1;
    }
    uint64_t planes = 0, bytes = 0;
    for (const SegmentModelInput &m : models)
        for (const SegmentEntryInput &e : m.entries) {
            ++planes;
            bytes += e.packed.size();
        }
    std::fprintf(stderr,
                 "ta_pack: wrote %s: %zu model(s), %llu plane(s), "
                 "%llu plane bytes\n",
                 out_path.c_str(), models.size(),
                 static_cast<unsigned long long>(planes),
                 static_cast<unsigned long long>(bytes));

    if (verify) {
        SegmentFile seg;
        if (!seg.open(out_path, &err)) {
            std::fprintf(stderr, "ta_pack: %s\n", err.c_str());
            return 1;
        }
        if (!verifySegment(seg))
            return 1;
    }
    return 0;
}
