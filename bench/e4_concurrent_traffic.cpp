// E4 — concurrent traffic over epoch-published snapshots.
//
// E3 measured what one writer must recompute per edit; this experiment
// measures what many readers get to do WHILE the writer edits. The sweep
// crosses session count × museum size × write rate: K behavior-model
// sessions (random surfer / guided tour / context switcher / kiosk)
// drive GETs through a ConcurrentServer while a writer thread re-authors
// one linkbase arc at the configured rate, each edit publishing a new
// site epoch. Reported per cell: throughput, latency quantiles, cache
// effectiveness, epochs published.
//
// Expected shape: read throughput scales with sessions (snapshot acquire
// is an atomic refcount bump; the response cache is mutex-striped across
// shards) and is insensitive to the write rate — writers never block
// readers, they only retire cache entries by advancing the epoch. The
// single-mutex HypermediaServer is the baseline this replaces; the
// scaling headroom is the point of src/serve/.
//
// Unlike the google-benchmark drivers, this is a self-contained driver
// with its own main: it emits BENCH_e4.json (machine-readable, one
// record per sweep cell) to seed the perf trajectory.
//
//   e4_concurrent_traffic [--quick] [--out PATH]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "nav/pipeline.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/workload.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace serve = navsep::serve;

struct Cell {
  std::size_t threads = 1;
  std::size_t paintings = 16;
  double writes_per_sec = 0.0;
};

struct Record {
  Cell cell;
  serve::WorkloadResult result;
  std::size_t writes_applied = 0;
  std::uint64_t epochs_published = 0;
};

std::unique_ptr<nav::Engine> museum_engine(std::size_t paintings) {
  return nav::SitePipeline()
      .conceptual(navsep::museum::SyntheticSpec{.painters = 4,
                                                .paintings_per_painter =
                                                    paintings / 4 + 1,
                                                .movements = 3,
                                                .seed = 42})
      .access(AccessStructureKind::IndexedGuidedTour)
      .contexts({"ByAuthor", "ByMovement"})
      .weave()
      .serve();
}

Record run_cell(const Cell& cell, std::size_t steps_per_session) {
  Record record;
  record.cell = cell;

  auto engine = museum_engine(cell.paintings);
  serve::Workload workload(*engine);  // capture before the writer starts
  auto server = engine->open_concurrent();

  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> writes{0};
  std::thread writer;
  if (cell.writes_per_sec > 0.0 && !arcs.empty()) {
    const auto interval = std::chrono::duration<double>(
        1.0 / cell.writes_per_sec);
    writer = std::thread([&] {
      std::size_t w = 0;
      while (!done.load(std::memory_order_acquire)) {
        hm::AccessArc edited = arcs[w % arcs.size()];
        edited.title += " (rev " + std::to_string(w) + ")";
        (void)engine->internals().replace_arc(w % arcs.size(),
                                              std::move(edited));
        writes.fetch_add(1, std::memory_order_relaxed);
        ++w;
        std::this_thread::sleep_for(interval);
      }
    });
  }

  serve::WorkloadOptions options;
  options.threads = cell.threads;
  options.steps_per_session = steps_per_session;
  record.result = workload.run(*server, options);

  done.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();
  record.writes_applied = writes.load();
  record.epochs_published = engine->snapshots().epoch();
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e4_concurrent_traffic\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const serve::WorkloadResult& w = r.result;
    char buffer[256];
    out << "    {\n";
    out << "      \"threads\": " << r.cell.threads << ",\n";
    out << "      \"paintings\": " << r.cell.paintings << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", r.cell.writes_per_sec);
    out << "      \"writes_per_sec\": " << buffer << ",\n";
    out << "      \"writes_applied\": " << r.writes_applied << ",\n";
    out << "      \"epochs_published\": " << r.epochs_published << ",\n";
    out << "      \"sessions\": " << w.sessions << ",\n";
    out << "      \"steps\": " << w.steps << ",\n";
    out << "      \"requests\": " << w.requests << ",\n";
    out << "      \"failures\": " << w.failures << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f", w.seconds);
    out << "      \"seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", w.throughput_rps);
    out << "      \"throughput_rps\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", w.latency.mean_ns());
    out << "      \"latency_mean_ns\": " << buffer << ",\n";
    out << "      \"latency_p50_ns\": " << w.latency.quantile_ns(0.5)
        << ",\n";
    out << "      \"latency_p90_ns\": " << w.latency.quantile_ns(0.9)
        << ",\n";
    out << "      \"latency_p99_ns\": " << w.latency.quantile_ns(0.99)
        << ",\n";
    out << "      \"latency_max_ns\": " << w.latency.max_ns() << ",\n";
    out << "      \"cache_hits\": " << w.server.base.hits << ",\n";
    out << "      \"snapshot_resolves\": " << w.server.base.resolves
        << ",\n";
    out << "      \"stale_refills\": " << w.server.base.stale_refills << ",\n";
    out << "      \"not_found\": " << w.server.base.not_found << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e4.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e4_concurrent_traffic [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> museum_sizes =
      quick ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 128};
  const std::vector<double> write_rates =
      quick ? std::vector<double>{0.0, 16.0}
            : std::vector<double>{0.0, 8.0, 64.0};
  const std::size_t steps = quick ? 64 : 4096;

  std::vector<Record> records;
  for (std::size_t paintings : museum_sizes) {
    for (double rate : write_rates) {
      for (std::size_t threads : thread_counts) {
        Record r = run_cell(Cell{threads, paintings, rate}, steps);
        std::printf(
            "threads=%zu paintings=%zu writes/s=%.0f -> %.0f req/s "
            "(p99 %llu ns, %zu stale refills, %llu epochs, %zu failures)\n",
            r.cell.threads, r.cell.paintings, r.cell.writes_per_sec,
            r.result.throughput_rps,
            static_cast<unsigned long long>(r.result.latency.quantile_ns(0.99)),
            r.result.server.base.stale_refills,
            static_cast<unsigned long long>(r.epochs_published),
            r.result.failures);
        records.push_back(std::move(r));
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  emit_json(records, out);
  std::cout << "wrote " << out_path << " (" << records.size() << " runs)\n";
  return 0;
}
