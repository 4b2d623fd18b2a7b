/**
 * @file
 * Microbenchmarks for the coding substrate: GF(2^8) region kernels
 * (per ISA variant and through the dispatched path), the fused
 * multi-source kernel, RS/LRC encode, single-chunk repair
 * computation, full decode, Butterfly sub-chunk repair, and relay-tree
 * plan evaluation. These verify that decoding bandwidth far exceeds
 * simulated link bandwidth — the paper's premise for treating the
 * network, not the CPU, as the repair bottleneck (Section II-B) —
 * and report GB/s per kernel so regressions in the SIMD layer land
 * in the bench trajectory. The reported "bytes_per_second" counter
 * for region kernels is source bytes processed.
 */

#include <benchmark/benchmark.h>

#include "ec/factory.hh"
#include "gf/gf256.hh"
#include "gf/gf_kernels.hh"
#include "repair/plan.hh"
#include "util/rng.hh"

namespace {

using namespace chameleon;

ec::Buffer
randomChunk(Rng &rng, std::size_t size)
{
    ec::Buffer b(size);
    for (auto &v : b)
        v = static_cast<uint8_t>(rng.below(256));
    return b;
}

void
BM_GfMulAddRegion(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    auto src = randomChunk(rng, size);
    ec::Buffer dst(size, 0);
    for (auto _ : state) {
        gf::mulAddRegion(std::span<uint8_t>(dst),
                         std::span<const uint8_t>(src), 0x57);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(size));
}
BENCHMARK(BM_GfMulAddRegion)->Arg(4096)->Arg(64 << 10)->Arg(1 << 20);

/** One ISA variant's mulAdd, bypassing dispatch (kernel comparison). */
void
BM_GfMulAddRegionIsa(benchmark::State &state, gf::detail::Isa isa)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto &k = gf::detail::kernels(isa);
    Rng rng(1);
    auto src = randomChunk(rng, size);
    ec::Buffer dst(size, 0);
    for (auto _ : state) {
        k.mulAdd(dst.data(), src.data(), size, 0x57);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(size));
}

/** Fused multi-source kernel vs. k sequential mulAdd passes; bytes
 * processed counts all source bytes. */
void
BM_GfMulAddRegionMulti(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto nsrc = static_cast<std::size_t>(state.range(1));
    Rng rng(7);
    std::vector<ec::Buffer> srcs;
    std::vector<const uint8_t *> ptrs;
    std::vector<uint8_t> coeffs;
    for (std::size_t j = 0; j < nsrc; ++j) {
        srcs.push_back(randomChunk(rng, size));
        coeffs.push_back(static_cast<uint8_t>(1 + rng.below(255)));
    }
    for (const auto &s : srcs)
        ptrs.push_back(s.data());
    ec::Buffer dst(size, 0);
    for (auto _ : state) {
        gf::mulAddRegionMulti(std::span<uint8_t>(dst), ptrs, coeffs);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(size * nsrc));
}
BENCHMARK(BM_GfMulAddRegionMulti)
    ->Args({64 << 10, 6})
    ->Args({1 << 20, 6})
    ->Args({1 << 20, 12});

/** Sequential-pass baseline for the fused kernel comparison. */
void
BM_GfMulAddRegionSequential(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const auto nsrc = static_cast<std::size_t>(state.range(1));
    Rng rng(7);
    std::vector<ec::Buffer> srcs;
    std::vector<uint8_t> coeffs;
    for (std::size_t j = 0; j < nsrc; ++j) {
        srcs.push_back(randomChunk(rng, size));
        coeffs.push_back(static_cast<uint8_t>(1 + rng.below(255)));
    }
    ec::Buffer dst(size, 0);
    for (auto _ : state) {
        for (std::size_t j = 0; j < nsrc; ++j)
            gf::mulAddRegion(std::span<uint8_t>(dst),
                             std::span<const uint8_t>(srcs[j]),
                             coeffs[j]);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(size * nsrc));
}
BENCHMARK(BM_GfMulAddRegionSequential)
    ->Args({1 << 20, 6})
    ->Args({1 << 20, 12});

void
BM_RsEncode(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    auto code = ec::makeRs(k, m);
    Rng rng(2);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < k; ++i)
        data.push_back(randomChunk(rng, 1 << 20));
    for (auto _ : state) {
        auto parity = code->encode(data);
        benchmark::DoNotOptimize(parity.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * k * (1 << 20));
}
BENCHMARK(BM_RsEncode)
    ->Args({6, 3})
    ->Args({10, 4})
    ->Args({20, 8})
    ->Args({24, 8});

void
BM_RsRepairCompute(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    auto code = ec::makeRs(k, 4);
    Rng rng(3);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < k; ++i)
        data.push_back(randomChunk(rng, 1 << 20));
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));

    std::vector<ChunkIndex> avail;
    for (ChunkIndex c = 1; c < code->n(); ++c)
        avail.push_back(c);
    auto spec = code->makeRepairSpec(0, avail, rng);
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);

    for (auto _ : state) {
        auto out = code->repairCompute(spec, helper_data);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_RsRepairCompute)->Arg(6)->Arg(10);

/** Single-chunk repairCompute for any registry spec; registered in
 * main() for the wide-RS / multi-group-LRC rows (Exp#17). */
void
BM_CodecRepair(benchmark::State &state, std::string spec)
{
    auto code = ec::makeCode(spec);
    Rng rng(8);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code->k(); ++i)
        data.push_back(randomChunk(rng, 1 << 20));
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    std::vector<ChunkIndex> avail;
    for (ChunkIndex c = 1; c < code->n(); ++c)
        avail.push_back(c);
    auto repair = code->makeRepairSpec(0, avail, rng);
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : repair.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    for (auto _ : state) {
        auto out = code->repairCompute(repair, helper_data);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * (1 << 20));
}

void
BM_LrcLocalRepair(benchmark::State &state)
{
    auto code = ec::makeLrc(10, 2, 2);
    Rng rng(4);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code->k(); ++i)
        data.push_back(randomChunk(rng, 1 << 20));
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    std::vector<ChunkIndex> avail;
    for (ChunkIndex c = 1; c < code->n(); ++c)
        avail.push_back(c);
    auto spec = code->makeRepairSpec(0, avail, rng);
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    for (auto _ : state) {
        auto out = code->repairCompute(spec, helper_data);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_LrcLocalRepair);

void
BM_ButterflyRepair(benchmark::State &state)
{
    auto code = ec::makeButterfly();
    Rng rng(5);
    std::vector<ec::Buffer> data = {randomChunk(rng, 1 << 20),
                                    randomChunk(rng, 1 << 20)};
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    std::vector<ChunkIndex> avail = {1, 2, 3};
    auto spec = code->makeRepairSpec(0, avail, rng);
    std::vector<ec::Buffer> helper_data;
    for (const auto &read : spec.reads)
        helper_data.push_back(
            chunks[static_cast<std::size_t>(read.helper)]);
    for (auto _ : state) {
        auto out = code->repairCompute(spec, helper_data);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_ButterflyRepair);

void
BM_RsDecodeMultiFailure(benchmark::State &state)
{
    auto code = ec::makeRs(10, 4);
    Rng rng(6);
    std::vector<ec::Buffer> data;
    for (int i = 0; i < code->k(); ++i)
        data.push_back(randomChunk(rng, 1 << 18));
    auto parity = code->encode(data);
    std::vector<ec::Buffer> chunks = data;
    for (auto &p : parity)
        chunks.push_back(std::move(p));
    for (auto _ : state) {
        auto damaged = chunks;
        damaged[0].clear();
        damaged[5].clear();
        damaged[11].clear();
        bool ok = code->decode(damaged);
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 3 * (1 << 18));
}
BENCHMARK(BM_RsDecodeMultiFailure);

/** Relay-tree evaluation (repair::evaluatePlan) of a PPR tree over
 * all k helpers, 1 MiB chunks; registered in main() for rs(10,4) and
 * rs(24,8). Bytes processed counts the repaired chunk, as for
 * repairCompute. */
void
BM_PlanEvaluate(benchmark::State &state, std::string spec)
{
    auto code = ec::makeCode(spec);
    Rng rng(9);
    std::vector<ec::Buffer> chunks;
    for (int i = 0; i < code->k(); ++i)
        chunks.push_back(randomChunk(rng, 1 << 20));
    for (auto &p : code->encode(chunks))
        chunks.push_back(std::move(p));
    std::vector<ChunkIndex> avail;
    for (ChunkIndex c = 1; c < code->n(); ++c)
        avail.push_back(c);
    auto repair = code->makeRepairSpec(0, avail, rng);
    std::vector<repair::PlanSource> sources;
    for (std::size_t i = 0; i < repair.reads.size(); ++i) {
        repair::PlanSource src;
        src.node = static_cast<NodeId>(i + 1);
        src.chunk = repair.reads[i].helper;
        src.coeff = repair.reads[i].coeff;
        sources.push_back(src);
    }
    const auto plan = repair::buildPprPlan(0, 0, 0, std::move(sources));
    for (auto _ : state) {
        auto out = repair::evaluatePlan(plan, chunks);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * (1 << 20));
}

} // namespace

/**
 * Custom main: the per-ISA kernel benchmarks are registered at
 * runtime because the set of usable kernels depends on what this CPU
 * supports (and on CHAMELEON_FORCE_SCALAR / CHAMELEON_GF_KERNEL).
 * Registered names look like BM_GfMulAddRegionIsa/avx2/1048576.
 */
int
main(int argc, char **argv)
{
    for (gf::detail::Isa isa : gf::detail::availableIsas()) {
        for (long size : {4096L, 64L << 10, 1L << 20}) {
            std::string name = std::string("BM_GfMulAddRegionIsa/") +
                               gf::detail::isaName(isa);
            benchmark::RegisterBenchmark(
                name.c_str(), BM_GfMulAddRegionIsa, isa)
                ->Arg(size);
        }
    }
    for (const char *spec : {"rs(20,8)", "rs(24,8)",
                             "lrc(12,2,2,2)", "lrc(24,4,2,2)"}) {
        std::string name =
            std::string("BM_CodecRepair/") + spec + "/1MiB";
        benchmark::RegisterBenchmark(name.c_str(), BM_CodecRepair,
                                     std::string(spec));
    }
    for (const char *spec : {"rs(10,4)", "rs(24,8)"}) {
        std::string name =
            std::string("BM_PlanEvaluate/") + spec + "/1MiB";
        benchmark::RegisterBenchmark(name.c_str(), BM_PlanEvaluate,
                                     std::string(spec));
    }
    benchmark::AddCustomContext("gf_kernel", gf::kernelName());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
