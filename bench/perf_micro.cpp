// Engineering micro-benchmarks (google-benchmark): throughput of the
// components the evaluation leans on — the path-vector engine, cluster
// refinement, LPM lookups, packet serialization, and the traceroute-repair
// pipeline. These back DESIGN.md's performance claims and the ablations
// (e.g. the epoch-stamped cluster refinement that makes Figure 8's random
// ensembles affordable).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bgp/catchment.hpp"
#include "bgp/engine.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "measure/bitplane_store.hpp"
#include "measure/catchment_store.hpp"
#include "measure/repair.hpp"
#include "netcore/lpm.hpp"
#include "netcore/packet.hpp"
#include "util/rng.hpp"

namespace {

using namespace spooftrack;

const core::PeeringTestbed& testbed_for(std::int64_t stubs) {
  static std::map<std::int64_t, std::unique_ptr<core::PeeringTestbed>> cache;
  auto& slot = cache[stubs];
  if (!slot) {
    core::TestbedConfig config;
    config.seed = 7;
    config.stub_count = static_cast<std::uint32_t>(stubs);
    config.transit_count = 120;
    config.probe_count = 400;
    slot = std::make_unique<core::PeeringTestbed>(config);
  }
  return *slot;
}

void BM_EnginePropagation(benchmark::State& state) {
  const auto& testbed = testbed_for(state.range(0));
  const auto config = testbed.generator().location_phase().front();
  for (auto _ : state) {
    auto outcome = testbed.engine().run(testbed.origin(), config);
    benchmark::DoNotOptimize(outcome.best.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(testbed.graph().size()));
}
BENCHMARK(BM_EnginePropagation)->Arg(500)->Arg(2000)->Arg(4000);

void BM_EngineWithPoisoning(benchmark::State& state) {
  const auto& testbed = testbed_for(2000);
  auto configs = testbed.generator().poison_phase(testbed.graph());
  configs.resize(1);
  for (auto _ : state) {
    auto outcome = testbed.engine().run(testbed.origin(), configs[0]);
    benchmark::DoNotOptimize(outcome.best.data());
  }
}
BENCHMARK(BM_EngineWithPoisoning);

void BM_ClusterRefine(benchmark::State& state) {
  const auto sources = static_cast<std::size_t>(state.range(0));
  util::Rng rng{3};
  std::vector<std::vector<std::uint8_t>> rows(
      32, std::vector<std::uint8_t>(sources));
  for (auto& row : rows) {
    for (auto& cell : row) {
      cell = measure::CatchmentStore::encode(
          static_cast<bgp::LinkId>(rng.next_below(7)));
    }
  }
  std::size_t i = 0;
  core::ClusterTracker tracker(sources);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.refine(rows[i++ & 31]));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sources));
}
BENCHMARK(BM_ClusterRefine)->Arg(1000)->Arg(10000);

measure::CatchmentStore micro_matrix(std::size_t configs,
                                     std::size_t sources) {
  util::Rng rng{11};
  measure::CatchmentStore store(0, sources);
  std::vector<std::uint8_t> row(sources);
  for (std::size_t c = 0; c < configs; ++c) {
    for (auto& cell : row) {
      cell = rng.chance(0.02) ? bgp::kNoCatchment8
                              : static_cast<std::uint8_t>(rng.next_below(7));
    }
    store.append_row(std::span<const std::uint8_t>(row));
  }
  return store;
}

void BM_BitplaneBuild(benchmark::State& state) {
  // Byte store -> bit-sliced planes transpose (dispatched build kernel).
  const auto store = micro_matrix(128, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    measure::BitplaneStore planes(store);
    benchmark::DoNotOptimize(planes.row_planes(0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.size_bytes()));
}
BENCHMARK(BM_BitplaneBuild)->Arg(1000)->Arg(10000);

void BM_ColumnGather(benchmark::State& state) {
  // Tiled trajectory gather (attribution / prediction access pattern):
  // 64 columns of a 1024-config matrix into contiguous buffers.
  const auto store = micro_matrix(1024, static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> sources(64);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    sources[j] = static_cast<std::uint32_t>(j * (store.sources() / 64));
  }
  std::vector<std::uint8_t> out(sources.size() * store.configs());
  for (auto _ : state) {
    store.gather_columns(sources, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ColumnGather)->Arg(512)->Arg(4096);

void BM_LpmLookup(benchmark::State& state) {
  util::Rng rng{5};
  netcore::LpmTable<std::uint32_t> table;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(8, 24));
    table.insert(netcore::Ipv4Prefix::make(
                     netcore::Ipv4Addr{static_cast<std::uint32_t>(rng.next())},
                     len),
                 i);
  }
  std::uint32_t x = 12345;
  for (auto _ : state) {
    x = x * 1664525 + 1013904223;
    benchmark::DoNotOptimize(table.lookup(netcore::Ipv4Addr{x}));
  }
}
BENCHMARK(BM_LpmLookup);

void BM_DatagramBuild(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(64, 0xAB);
  for (auto _ : state) {
    auto d = netcore::Datagram::make_udp(netcore::Ipv4Addr{10, 0, 0, 1},
                                         netcore::Ipv4Addr{10, 0, 0, 2}, 1234,
                                         53, payload);
    benchmark::DoNotOptimize(d.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size() + 28));
}
BENCHMARK(BM_DatagramBuild);

void BM_MeasurementPipeline(benchmark::State& state) {
  // One configuration's full measured pipeline on a small testbed.
  core::TestbedConfig config;
  config.seed = 9;
  config.stub_count = 500;
  config.transit_count = 60;
  config.probe_count = 200;
  const core::PeeringTestbed testbed(config);
  auto configs = testbed.generator().location_phase();
  configs.resize(1);
  for (auto _ : state) {
    auto result = testbed.deploy(configs);
    benchmark::DoNotOptimize(result.matrix.data());
  }
}
BENCHMARK(BM_MeasurementPipeline);

}  // namespace

BENCHMARK_MAIN();
