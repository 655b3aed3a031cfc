// E7 — replication economics: what shipping epochs to a read fleet
// costs, and what the slice-hash-driven deltas save.
//
// The paper's separation prices this experiment's headline: navigation
// edits move linkbase-sized deltas, never the site. The sweep crosses
// replica count × edit kind × edit pacing. Per cell a real origin
// engine publishes over loopback TCP to N in-process repl::Replicas
// while a scripted mutation sequence runs; reported per cell:
//
//   - wire economics: DELTA frames/bytes vs FULL frames/bytes from the
//     publisher, plus the size one FULL of the final snapshot would be
//     (the "what a naive ship-the-site design pays per epoch" baseline);
//   - apply latency: wire-level encode_delta/apply_delta timings per
//     epoch, measured in-process (mean + max, microseconds);
//   - epoch lag: how long after the last mutation the slowest replica
//     reaches the origin's epoch (convergence, milliseconds);
//   - a byte-identity verdict over every artifact of every replica —
//     an economics number from a diverged replica would be worthless.
//
// Self-contained driver (no google-benchmark): emits BENCH_e7.json.
//
//   e7_replication [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"
#include "repl/publisher.hpp"
#include "repl/replica.hpp"
#include "repl/wire.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
namespace repl = navsep::repl;
namespace serve = navsep::serve;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::size_t replicas = 1;
  std::string edit_kind;        ///< "family" | "title" | "mixed"
  std::size_t interval_us = 0;  ///< pause between edits (0 = burst)
  std::size_t epochs = 16;
};

struct Record {
  Cell cell;
  repl::Publisher::Stats publisher;
  std::size_t full_snapshot_bytes = 0;  ///< encode_full of the end state
  // Wire-level per-epoch measurements (in-process, deterministic).
  double encode_delta_mean_us = 0;
  double apply_delta_mean_us = 0;
  double apply_delta_max_us = 0;
  double avg_delta_bytes = 0;
  double convergence_ms = 0;  ///< slowest replica, after the last edit
  bool byte_identical = true;
};

std::unique_ptr<nav::Engine> make_engine(std::size_t paintings) {
  auto engine =
      nav::SitePipeline()
          .conceptual(navsep::museum::SyntheticSpec{.painters = 4,
                                                    .paintings_per_painter =
                                                        paintings / 4 + 1,
                                                    .movements = 3,
                                                    .seed = 42})
          .access(AccessStructureKind::IndexedGuidedTour)
          .contexts({"ByAuthor", "ByMovement"})
          .weave()
          .serve();
  engine->register_profile({"kiosk", {}});
  engine->register_profile({"tour", {"ByAuthor"}});
  engine->register_profile({"everything", {"ByAuthor", "ByMovement"}});
  return engine;
}

void rotate_family(nav::Engine& engine, const std::string& family_name) {
  (void)engine.edit_context_family(
      family_name, [](hm::ContextFamily& family) {
        std::vector<hm::NavigationalContext> contexts = family.contexts();
        if (contexts.empty() || contexts.front().size() < 2) return;
        std::vector<std::string> ids = contexts.front().node_ids();
        std::rotate(ids.begin(), ids.begin() + 1, ids.end());
        contexts.front() = hm::NavigationalContext(contexts.front().family(),
                                                   contexts.front().name(),
                                                   std::move(ids));
        family.replace_contexts(std::move(contexts));
      });
}

void mutate(nav::Engine& engine, const std::string& kind, std::size_t step) {
  if (kind == "family") {
    rotate_family(engine, "ByAuthor");
  } else if (kind == "title") {
    const auto& members = engine.structure().members();
    (void)engine.retitle_node(
        members[step % members.size()].node_id,
        "e7-title-" + std::to_string(step));
  } else {  // mixed
    switch (step % 3) {
      case 0:
        rotate_family(engine, step % 2 == 0 ? "ByAuthor" : "ByMovement");
        break;
      case 1: {
        const auto& members = engine.structure().members();
        (void)engine.retitle_node(
            members[step % members.size()].node_id,
            "e7-title-" + std::to_string(step));
        break;
      }
      default: {
        std::vector<hm::AccessArc> arcs = engine.authored_arcs();
        if (arcs.empty()) break;
        hm::AccessArc edited = arcs[step % arcs.size()];
        edited.title = "e7-arc-" + std::to_string(step);
        (void)engine.replace_arc(step % arcs.size(), std::move(edited));
        break;
      }
    }
  }
}

Record run_cell(const Cell& cell, std::size_t paintings) {
  Record record;
  record.cell = cell;

  auto engine = make_engine(paintings);
  auto publisher =
      engine->open_publisher(repl::Endpoint::tcp("127.0.0.1", 0));
  std::vector<std::unique_ptr<repl::Replica>> replicas;
  for (std::size_t i = 0; i < cell.replicas; ++i) {
    replicas.push_back(std::make_unique<repl::Replica>(
        repl::Connection::connect(publisher->endpoint())));
    replicas.back()->start();
  }

  // The mutation run. Alongside the socketed stream, measure the wire
  // costs per epoch in-process: encode_delta and apply_delta between
  // consecutive snapshots (what each subscriber thread pays per frame).
  double encode_us_total = 0, apply_us_total = 0, delta_bytes_total = 0;
  auto prev = engine->snapshots().current();
  for (std::size_t step = 0; step < cell.epochs; ++step) {
    mutate(*engine, cell.edit_kind, step);
    auto next = engine->snapshots().current();

    const auto t0 = Clock::now();
    const std::string delta = repl::encode_delta(*prev, *next);
    const auto t1 = Clock::now();
    auto applied = repl::apply_delta(delta, *prev);
    const auto t2 = Clock::now();
    encode_us_total +=
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const double apply_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count();
    apply_us_total += apply_us;
    record.apply_delta_max_us = std::max(record.apply_delta_max_us, apply_us);
    delta_bytes_total += static_cast<double>(delta.size());
    prev = std::move(next);

    if (cell.interval_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(cell.interval_us));
    }
  }
  record.encode_delta_mean_us =
      encode_us_total / static_cast<double>(cell.epochs);
  record.apply_delta_mean_us =
      apply_us_total / static_cast<double>(cell.epochs);
  record.avg_delta_bytes =
      delta_bytes_total / static_cast<double>(cell.epochs);

  // Convergence: the slowest replica's distance from the final epoch.
  const std::uint64_t target = engine->snapshots().epoch();
  const auto settle0 = Clock::now();
  for (auto& replica : replicas) {
    if (!replica->wait_for_epoch(target, std::chrono::seconds(60))) {
      record.byte_identical = false;  // never converged
    }
  }
  record.convergence_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - settle0)
          .count();

  // Verdict: every replica serves exactly the origin's artifact bytes.
  auto origin_snap = engine->snapshots().current();
  for (auto& replica : replicas) {
    auto snap = replica->store().current();
    if (snap == nullptr || snap->files().size() != origin_snap->files().size()) {
      record.byte_identical = false;
      continue;
    }
    for (const auto& [path, bytes] : origin_snap->files()) {
      auto it = snap->files().find(path);
      if (it == snap->files().end() || *it->second != *bytes) {
        record.byte_identical = false;
        break;
      }
    }
  }

  record.full_snapshot_bytes = repl::encode_full(*origin_snap).size();
  record.publisher = publisher->stats();
  for (auto& replica : replicas) replica->stop();
  publisher->stop();
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e7_replication\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char buffer[64];
    auto f = [&](double v) {
      std::snprintf(buffer, sizeof(buffer), "%.2f", v);
      return std::string(buffer);
    };
    out << "    {\n";
    out << "      \"replicas\": " << r.cell.replicas << ",\n";
    out << "      \"edit_kind\": \"" << r.cell.edit_kind << "\",\n";
    out << "      \"interval_us\": " << r.cell.interval_us << ",\n";
    out << "      \"epochs\": " << r.cell.epochs << ",\n";
    out << "      \"full_snapshot_bytes\": " << r.full_snapshot_bytes
        << ",\n";
    out << "      \"avg_delta_bytes\": " << f(r.avg_delta_bytes) << ",\n";
    out << "      \"encode_delta_mean_us\": " << f(r.encode_delta_mean_us)
        << ",\n";
    out << "      \"apply_delta_mean_us\": " << f(r.apply_delta_mean_us)
        << ",\n";
    out << "      \"apply_delta_max_us\": " << f(r.apply_delta_max_us)
        << ",\n";
    out << "      \"wire_full_frames\": " << r.publisher.full_frames << ",\n";
    out << "      \"wire_full_bytes\": " << r.publisher.full_bytes << ",\n";
    out << "      \"wire_delta_frames\": " << r.publisher.delta_frames
        << ",\n";
    out << "      \"wire_delta_bytes\": " << r.publisher.delta_bytes << ",\n";
    out << "      \"wire_resync_fulls\": " << r.publisher.resync_fulls
        << ",\n";
    out << "      \"convergence_ms\": " << f(r.convergence_ms) << ",\n";
    out << "      \"byte_identical\": "
        << (r.byte_identical ? "true" : "false") << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e7.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e7_replication [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> replica_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4};
  const std::vector<std::string> edit_kinds =
      quick ? std::vector<std::string>{"family", "mixed"}
            : std::vector<std::string>{"family", "title", "mixed"};
  const std::vector<std::size_t> intervals_us =
      quick ? std::vector<std::size_t>{0}
            : std::vector<std::size_t>{0, 2000};
  const std::size_t epochs = quick ? 8 : 24;
  const std::size_t paintings = quick ? 8 : 24;

  std::vector<Record> records;
  bool all_identical = true;
  for (std::size_t replicas : replica_counts) {
    for (const std::string& kind : edit_kinds) {
      for (std::size_t interval : intervals_us) {
        Record r = run_cell(Cell{replicas, kind, interval, epochs},
                            paintings);
        std::printf(
            "replicas=%zu kind=%-6s interval=%zuus -> delta avg %.0f B "
            "(full %zu B, x%.1f smaller), apply %.0f us, converge %.1f ms, "
            "%s\n",
            r.cell.replicas, r.cell.edit_kind.c_str(), r.cell.interval_us,
            r.avg_delta_bytes, r.full_snapshot_bytes,
            r.avg_delta_bytes == 0
                ? 0.0
                : static_cast<double>(r.full_snapshot_bytes) /
                      r.avg_delta_bytes,
            r.apply_delta_mean_us, r.convergence_ms,
            r.byte_identical ? "byte-identical" : "DIVERGED");
        all_identical = all_identical && r.byte_identical;
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
  return all_identical ? 0 : 1;
}
