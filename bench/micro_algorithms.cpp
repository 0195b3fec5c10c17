// Google-Benchmark microbenchmarks: scaling of the three MinMemory
// algorithms, the MinIO simulator and the symbolic-factorization substrate
// across tree shapes and sizes.
#include <benchmark/benchmark.h>

#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"
#include "tree/generators.hpp"

namespace {

using namespace treemem;

Tree bench_tree(int shape, NodeId p) {
  Prng prng(static_cast<std::uint64_t>(shape) * 7919 + static_cast<std::uint64_t>(p));
  switch (shape) {
    case 0:
      return gen::chain(p, 8, 2);
    case 1: {
      // complete binary tree of ~p nodes
      NodeId levels = 1;
      while ((NodeId{1} << levels) - 1 < p) {
        ++levels;
      }
      return gen::complete_kary(2, levels, 8, 2);
    }
    default: {
      gen::RandomTreeOptions options;
      options.chain_bias = 0.3;
      options.max_file = 64;
      options.max_work = 16;
      return gen::random_tree(p, options, prng);
    }
  }
}

const char* shape_name(int shape) {
  switch (shape) {
    case 0:
      return "chain";
    case 1:
      return "binary";
    default:
      return "random";
  }
}

void BM_PostOrder(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<NodeId>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_postorder(tree).peak);
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
  state.SetComplexityN(state.range(1));
}

void BM_LiuExact(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<NodeId>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(liu_optimal(tree).peak);
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
  state.SetComplexityN(state.range(1));
}

void BM_MinMem(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<NodeId>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(minmem_optimal(tree).peak);
  }
  state.SetLabel(shape_name(static_cast<int>(state.range(0))));
  state.SetComplexityN(state.range(1));
}

void BM_MinIoFirstFit(benchmark::State& state) {
  const Tree tree = bench_tree(2, static_cast<NodeId>(state.range(0)));
  const MinMemResult mm = minmem_optimal(tree);
  const Weight lo = std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  const Weight memory = lo + (mm.peak - lo) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        minio_heuristic(tree, mm.order, memory, EvictionPolicy::kFirstFit)
            .io_volume);
  }
}

void BM_EliminationTree(benchmark::State& state) {
  const Index side = static_cast<Index>(state.range(0));
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  for (auto _ : state) {
    benchmark::DoNotOptimize(elimination_tree(a));
  }
  state.SetComplexityN(side * side);
}

void BM_ColumnCounts(benchmark::State& state) {
  const Index side = static_cast<Index>(state.range(0));
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  const std::vector<Index> parent = elimination_tree(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(column_counts(a, parent));
  }
}

void BM_MinDegree(benchmark::State& state) {
  const Index side = static_cast<Index>(state.range(0));
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_degree_order(a));
  }
  state.SetComplexityN(side * side);
}

void BM_NestedDissection(benchmark::State& state) {
  const Index side = static_cast<Index>(state.range(0));
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nested_dissection_order(a));
  }
}

void BM_AssemblyTreePipeline(benchmark::State& state) {
  const Index side = static_cast<Index>(state.range(0));
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  for (auto _ : state) {
    const SparsePattern permuted = permute_symmetric(
        a, fill_reducing_order(a, OrderingChoice::kMinDegree));
    benchmark::DoNotOptimize(
        build_assembly_tree(permuted, {.relax = 4}).tree.size());
  }
}

}  // namespace

BENCHMARK(BM_PostOrder)
    ->ArgsProduct({{0, 1, 2}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_LiuExact)
    ->ArgsProduct({{0, 1, 2}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MinMem)
    ->ArgsProduct({{0, 1, 2}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MinIoFirstFit)->Arg(1 << 10)->Arg(1 << 13)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_EliminationTree)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_ColumnCounts)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond)->MinTime(0.1);
BENCHMARK(BM_MinDegree)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_NestedDissection)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_AssemblyTreePipeline)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond)->MinTime(0.1);

BENCHMARK_MAIN();
