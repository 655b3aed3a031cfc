// E9 — what does watching the system cost?
//
// PR 8 wired one obs::Registry across every layer and gave each
// workload session a navigation trace ring. The claim worth pricing:
// telemetry is compile-in cheap and run-time sampleable — the serve
// hot path stays wait-free, capture costs one ring store per sampled
// step, and metrics export happens only at snapshot() time. This
// experiment measures it under the e4 churn regime: a writer thread
// re-authors arc titles continuously (one published epoch per edit)
// while mixed-behavior sessions (including ProfileMix overlay traffic)
// navigate.
//
// The sweep crosses telemetry {off, sampled (every 16th step), full
// (every step)} × threads × museum size. Per cell: p50/p99 serve
// latency (interpolated log2 quantiles), throughput, traces recorded /
// dropped, epochs published mid-run, and — the headline — the p50
// overhead of each telemetry mode against the `off` baseline of the
// same cell. The modes are interleaved over many rounds; the overhead
// is the median of the per-round paired ratios, which suppresses
// scheduler noise (dominant on a shared host) without hiding
// systematic cost. Within a round each mode warms up and keeps
// its lowest-p50 of three reps.
//
// Self-contained driver (no google-benchmark): emits BENCH_e9.json.
//
//   e9_observability [--quick] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "obs/registry.hpp"
#include "serve/concurrent_server.hpp"
#include "serve/workload.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace obs = navsep::obs;
namespace serve = navsep::serve;

constexpr std::size_t kShards = 4;

enum class Mode { Off, Sampled, Full };

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::Off: return "off";
    case Mode::Sampled: return "sampled";
    case Mode::Full: return "full";
  }
  return "unknown";
}

std::uint32_t sample_every(Mode mode) {
  return mode == Mode::Sampled ? 16u : 1u;
}

struct Cell {
  Mode mode = Mode::Off;
  std::size_t threads = 4;
  std::size_t paintings = 16;
};

struct Record {
  Cell cell;
  std::size_t steps_per_session = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  std::uint64_t epochs = 0;  ///< epochs published during the measured rep
  double seconds = 0.0;
  double rps = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t traces_recorded = 0;
  std::uint64_t traces_dropped = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t spans_recorded = 0;
  double p50_overhead_vs_off = 0.0;  ///< median over rounds of
                                     ///< (p50 / same-round off p50) - 1
};

std::unique_ptr<nav::Engine> museum_engine(std::size_t paintings) {
  auto engine = nav::SitePipeline()
                    .conceptual(navsep::museum::SyntheticSpec{
                        .painters = 4,
                        .paintings_per_painter = paintings / 4 + 1,
                        .movements = 3,
                        .seed = 42})
                    .access(AccessStructureKind::IndexedGuidedTour)
                    .contexts({"ByAuthor", "ByMovement"})
                    .weave()
                    .serve();
  engine->register_profile({"tour", {"ByAuthor"}});
  engine->register_profile({"everything", {"ByAuthor", "ByMovement"}});
  return engine;
}

Record run_cell(const Cell& cell, std::size_t steps) {
  Record record;
  record.cell = cell;
  record.steps_per_session = steps;

  auto engine = museum_engine(cell.paintings);
  std::shared_ptr<obs::Registry> registry;
  obs::SamplerHandle metrics;
  auto server = engine->open_concurrent(kShards);
  if (cell.mode != Mode::Off) {
    registry = std::make_shared<obs::Registry>();
    engine->attach_telemetry(registry);
    metrics = server->register_metrics(registry);
  }
  serve::Workload workload(*engine);  // before the churn writer starts

  serve::WorkloadOptions options;
  options.threads = cell.threads;
  options.steps_per_session = steps;
  options.behaviors = {serve::Behavior::RandomSurfer,
                       serve::Behavior::GuidedTour,
                       serve::Behavior::ContextSwitcher,
                       serve::Behavior::Kiosk, serve::Behavior::ProfileMix};
  if (cell.mode != Mode::Off) {
    options.trace = {.enabled = true,
                     .sample_every = sample_every(cell.mode),
                     .ring_capacity = 1024};
    options.telemetry = registry;
  }

  // Concurrent churn, the e4 idiom: the writer re-authors arc titles
  // (each edit publishes an epoch) until the sessions finish, so every
  // rep runs against a moving site. Family edits are deliberately NOT
  // used here — live NavigationSessions do not survive a concurrent
  // edit_context_family (the ROADMAP's snapshot-versioned-family item).
  const std::vector<hm::AccessArc> arcs = engine->authored_arcs();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::size_t w = 0;
    while (!done.load(std::memory_order_acquire) && !arcs.empty()) {
      hm::AccessArc edited = arcs[w % arcs.size()];
      edited.title += " (rev " + std::to_string(w) + ")";
      (void)engine->replace_arc(w % arcs.size(), std::move(edited));
      ++w;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Warmup (caches, allocator, branch predictors), then three measured
  // reps; keep the lowest-p50 one — noise is one-sided under a shared
  // scheduler, systematic telemetry cost is not.
  serve::WorkloadOptions warmup = options;
  warmup.steps_per_session = std::max<std::size_t>(steps / 4, 8);
  (void)workload.run(*server, warmup);

  bool have_best = false;
  serve::WorkloadResult best;
  std::uint64_t epochs_during_best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t epoch_before = engine->snapshots().epoch();
    serve::WorkloadResult result = workload.run(*server, options);
    const std::uint64_t epoch_after = engine->snapshots().epoch();
    if (!have_best || std::llround(result.latency.quantile(0.5)) <
                          std::llround(best.latency.quantile(0.5))) {
      have_best = true;
      epochs_during_best = epoch_after - epoch_before;
      best = std::move(result);
    }
  }
  done.store(true, std::memory_order_release);
  writer.join();

  record.requests = best.requests;
  record.failures = best.failures;
  record.epochs = epochs_during_best;
  record.seconds = best.seconds;
  record.rps = best.throughput_rps;
  record.p50_ns = static_cast<std::uint64_t>(
      std::llround(best.latency.quantile(0.5)));
  record.p99_ns = static_cast<std::uint64_t>(
      std::llround(best.latency.quantile(0.99)));
  record.traces_recorded = best.traces.recorded;
  record.traces_dropped = best.traces.dropped;
  record.trace_events = best.traces.events;
  if (registry != nullptr) {
    record.spans_recorded = registry->snapshot().spans_recorded;
  }
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e9_observability\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char buffer[64];
    auto fixed = [&](double v) {
      std::snprintf(buffer, sizeof(buffer), "%.4f", v);
      return std::string(buffer);
    };
    out << "    {\n";
    out << "      \"telemetry\": \"" << to_string(r.cell.mode) << "\",\n";
    out << "      \"sample_every\": "
        << (r.cell.mode == Mode::Off ? 0 : sample_every(r.cell.mode))
        << ",\n";
    out << "      \"threads\": " << r.cell.threads << ",\n";
    out << "      \"paintings\": " << r.cell.paintings << ",\n";
    out << "      \"steps_per_session\": " << r.steps_per_session << ",\n";
    out << "      \"requests\": " << r.requests << ",\n";
    out << "      \"failures\": " << r.failures << ",\n";
    out << "      \"epochs\": " << r.epochs << ",\n";
    out << "      \"seconds\": " << fixed(r.seconds) << ",\n";
    out << "      \"rps\": " << fixed(r.rps) << ",\n";
    out << "      \"p50_ns\": " << r.p50_ns << ",\n";
    out << "      \"p99_ns\": " << r.p99_ns << ",\n";
    out << "      \"traces_recorded\": " << r.traces_recorded << ",\n";
    out << "      \"traces_dropped\": " << r.traces_dropped << ",\n";
    out << "      \"trace_events\": " << r.trace_events << ",\n";
    out << "      \"spans_recorded\": " << r.spans_recorded << ",\n";
    out << "      \"p50_overhead_vs_off\": " << fixed(r.p50_overhead_vs_off)
        << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e9.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e9_observability [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{8} : std::vector<std::size_t>{8, 24};
  // Full reps must span many 2ms writer rotations, or "under churn"
  // would be vacuous (epochs == 0): 6144 steps/session keeps each
  // measured rep in the tens-of-milliseconds range.
  const std::size_t steps = quick ? 96 : 6144;
  const Mode modes[] = {Mode::Off, Mode::Sampled, Mode::Full};

  // Interleave the modes round-robin: within one round the three runs
  // see similar machine conditions, so each round yields a PAIRED
  // overhead ratio (mode p50 / that round's off p50), and the median
  // over rounds is robust to the scheduling drift of a shared host,
  // where per-rep noise dwarfs a ~ns ring store. The reported p50/p99
  // columns are each mode's lowest-p50 round (the noise floor);
  // p50_overhead_vs_off is the median paired ratio, which is why the
  // two are not arithmetically consistent.
  //
  // One round's ratio swings by ±10–20% on a 4-core shared host, and
  // longer reps do not narrow it (the swing comes with each fresh
  // engine and schedule, not from the sample count), so a full run
  // buys its precision with rounds: at 8, ten runs put one cell's
  // sampled overhead anywhere in −15% … +24%; at 96 a single run's
  // median settles within a few percent (docs/BENCHMARKS.md).
  const int rounds = quick ? 1 : 96;
  std::vector<Record> records;
  for (std::size_t threads : thread_counts) {
    for (std::size_t paintings : sizes) {
      Record best[3];
      bool have[3] = {false, false, false};
      std::vector<double> ratio[3];
      for (int round = 0; round < rounds; ++round) {
        std::uint64_t round_off_p50 = 0;
        for (int m = 0; m < 3; ++m) {
          Record r = run_cell(Cell{modes[m], threads, paintings}, steps);
          if (m == 0) {
            round_off_p50 = r.p50_ns;
          } else if (round_off_p50 > 0) {
            ratio[m].push_back(static_cast<double>(r.p50_ns) /
                               static_cast<double>(round_off_p50));
          }
          if (!have[m] || r.p50_ns < best[m].p50_ns) {
            have[m] = true;
            best[m] = std::move(r);
          }
        }
      }
      for (int m = 0; m < 3; ++m) {
        Record r = best[m];
        if (m > 0 && !ratio[m].empty()) {
          std::vector<double>& rs = ratio[m];
          std::sort(rs.begin(), rs.end());
          const std::size_t n = rs.size();
          const double median = n % 2 == 1
                                    ? rs[n / 2]
                                    : (rs[n / 2 - 1] + rs[n / 2]) / 2.0;
          r.p50_overhead_vs_off = median - 1.0;
        }
        std::printf(
            "telemetry=%-7s threads=%zu paintings=%-2zu -> p50 %6llu ns "
            "p99 %7llu ns  %9.0f rps  %6llu traces (%llu dropped)  "
            "epochs %llu  overhead %+.1f%%\n",
            to_string(r.cell.mode), r.cell.threads, r.cell.paintings,
            static_cast<unsigned long long>(r.p50_ns),
            static_cast<unsigned long long>(r.p99_ns), r.rps,
            static_cast<unsigned long long>(r.traces_recorded),
            static_cast<unsigned long long>(r.traces_dropped),
            static_cast<unsigned long long>(r.epochs),
            r.p50_overhead_vs_off * 100.0);
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
