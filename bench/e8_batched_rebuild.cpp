// E8 — batched rebuild economics: what mutation coalescing buys on a
// live engine.
//
// The paper's change request (§5) is an edit burst against the
// navigation design. Unbatched, every edit pays its own graph run and
// publishes its own epoch; through begin_batch()/commit_batch() a burst
// pays one plan, one dirty-propagation pass, one re-weave and exactly
// one published epoch. The sweep crosses batch size × museum size. Per
// cell a scripted mixed edit stream (retitles, arc edits, kind swaps,
// family rotations) runs against the engine; reported per cell:
//
//   - edits/sec over the whole stream (the headline throughput);
//   - publish latency: wall time of each commit (the window in which
//     the burst becomes one visible epoch) — mean and max, ms;
//   - epochs published (batch size K must divide the epoch count by K);
//   - a byte-identity verdict against an unbatched engine fed the
//     identical stream — a throughput number from a diverged site would
//     be worthless. The unbatched run also provides the baseline
//     edits/sec the batched cells are compared with.
//
// Self-contained driver (no google-benchmark): emits BENCH_e8.json.
//
//   e8_batched_rebuild [--quick] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hypermedia/access.hpp"
#include "hypermedia/context.hpp"
#include "nav/pipeline.hpp"

namespace {

using navsep::hypermedia::AccessStructureKind;
namespace hm = navsep::hypermedia;
namespace nav = navsep::nav;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::size_t batch = 1;     ///< edits per begin/commit (1 = unbatched)
  std::size_t paintings = 12;
  std::size_t edits = 48;
};

struct Record {
  Cell cell;
  double edits_per_sec = 0;
  double serial_edits_per_sec = 0;  ///< unbatched baseline
  double commit_mean_ms = 0;        ///< publish latency per commit
  double commit_max_ms = 0;
  std::size_t epochs_published = 0;
  bool byte_identical = true;       ///< vs the unbatched baseline site
};

std::unique_ptr<nav::Engine> make_engine(std::size_t paintings) {
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

/// One deterministic mixed edit, the same for every engine in a cell.
void mutate(nav::Engine& engine, std::size_t step) {
  switch (step % 4) {
    case 0: {
      const auto& members = engine.structure().members();
      (void)engine.retitle_node(
          members[step % members.size()].node_id,
          "e8-title-" + std::to_string(step));
      break;
    }
    case 1: {
      std::vector<hm::AccessArc> arcs = engine.authored_arcs();
      if (arcs.empty()) break;
      hm::AccessArc edited = arcs[step % arcs.size()];
      edited.title = "e8-arc-" + std::to_string(step);
      (void)engine.replace_arc(step % arcs.size(), std::move(edited));
      break;
    }
    case 2:
      (void)engine.set_access_structure(
          step % 8 == 2 ? AccessStructureKind::GuidedTour
                        : AccessStructureKind::IndexedGuidedTour);
      break;
    default:
      (void)engine.edit_context_family(
          "ByAuthor", [step](hm::ContextFamily& family) {
            std::vector<hm::NavigationalContext> contexts = family.contexts();
            if (contexts.empty() || contexts.front().size() < 2) return;
            std::vector<std::string> ids = contexts.front().node_ids();
            std::rotate(ids.begin(), ids.begin() + 1 + (step % (ids.size() - 1)),
                        ids.end());
            contexts.front() = hm::NavigationalContext(
                contexts.front().family(), contexts.front().name(),
                std::move(ids));
            family.replace_contexts(std::move(contexts));
          });
      break;
  }
}

/// Run the edit stream; returns total seconds and fills commit timings.
double run_stream(nav::Engine& engine, const Cell& cell, Record* record) {
  double commit_ms_total = 0;
  std::size_t commits = 0;
  const auto run0 = Clock::now();
  for (std::size_t step = 0; step < cell.edits;) {
    const std::size_t burst = std::min(cell.batch, cell.edits - step);
    if (burst > 1) engine.begin_batch();
    for (std::size_t k = 0; k < burst; ++k) mutate(engine, step + k);
    const auto c0 = Clock::now();
    if (burst > 1) (void)engine.commit_batch();
    // Unbatched: every mutation above already ran + published; the
    // "commit window" is the mutation itself, folded into the total.
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - c0).count();
    if (burst > 1 && record != nullptr) {
      commit_ms_total += ms;
      ++commits;
      record->commit_max_ms = std::max(record->commit_max_ms, ms);
    }
    step += burst;
  }
  const double total_s =
      std::chrono::duration<double>(Clock::now() - run0).count();
  if (record != nullptr && commits > 0) {
    record->commit_mean_ms = commit_ms_total / static_cast<double>(commits);
  }
  return total_s;
}

Record run_cell(const Cell& cell) {
  Record record;
  record.cell = cell;

  // The baseline: unbatched, identical stream.
  auto serial = make_engine(cell.paintings);
  Cell serial_cell = cell;
  serial_cell.batch = 1;
  const double serial_s = run_stream(*serial, serial_cell, nullptr);
  record.serial_edits_per_sec =
      serial_s > 0 ? static_cast<double>(cell.edits) / serial_s : 0;

  // The cell under measurement.
  auto engine = make_engine(cell.paintings);
  const std::uint64_t epoch0 = engine->snapshots().epoch();
  const double total_s = run_stream(*engine, cell, &record);
  record.edits_per_sec =
      total_s > 0 ? static_cast<double>(cell.edits) / total_s : 0;
  record.epochs_published =
      static_cast<std::size_t>(engine->snapshots().epoch() -
                               epoch0);
  if (cell.batch == 1) {
    // Unbatched cells close with a kind swap that re-weaves every page,
    // mirrored on the baseline, so their verdict also covers a
    // whole-site re-weave (one more epoch).
    (void)engine->set_access_structure(AccessStructureKind::GuidedTour);
    (void)serial->set_access_structure(AccessStructureKind::GuidedTour);
    ++record.epochs_published;
  }

  // Verdict: the final site must equal the baseline's, byte for byte.
  std::vector<std::pair<std::string, std::string>> mine =
      engine->site().artifacts();
  std::vector<std::pair<std::string, std::string>> theirs =
      serial->site().artifacts();
  record.byte_identical = mine == theirs;
  return record;
}

void emit_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n  \"bench\": \"e8_batched_rebuild\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char buffer[64];
    auto f = [&](double v) {
      std::snprintf(buffer, sizeof(buffer), "%.2f", v);
      return std::string(buffer);
    };
    out << "    {\n";
    out << "      \"batch\": " << r.cell.batch << ",\n";
    out << "      \"paintings\": " << r.cell.paintings << ",\n";
    out << "      \"edits\": " << r.cell.edits << ",\n";
    out << "      \"edits_per_sec\": " << f(r.edits_per_sec) << ",\n";
    out << "      \"serial_edits_per_sec\": " << f(r.serial_edits_per_sec)
        << ",\n";
    out << "      \"commit_mean_ms\": " << f(r.commit_mean_ms) << ",\n";
    out << "      \"commit_max_ms\": " << f(r.commit_max_ms) << ",\n";
    out << "      \"epochs_published\": " << r.epochs_published << ",\n";
    out << "      \"byte_identical\": "
        << (r.byte_identical ? "true" : "false") << "\n";
    out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_e8.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: e8_batched_rebuild [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> batch_sizes =
      quick ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 4, 16};
  const std::vector<std::size_t> museum_sizes =
      quick ? std::vector<std::size_t>{8}
            : std::vector<std::size_t>{12, 48};
  const std::size_t edits = quick ? 16 : 48;

  std::vector<Record> records;
  bool all_identical = true;
  for (std::size_t paintings : museum_sizes) {
    for (std::size_t batch : batch_sizes) {
      Record r = run_cell(Cell{batch, paintings, edits});
      std::printf(
          "batch=%-2zu paintings=%-2zu -> %.0f edits/s (unbatched %.0f), "
          "commit mean %.2f ms max %.2f ms, %zu epochs, %s\n",
          r.cell.batch, r.cell.paintings, r.edits_per_sec,
          r.serial_edits_per_sec, r.commit_mean_ms, r.commit_max_ms,
          r.epochs_published, r.byte_identical ? "byte-identical" : "DIVERGED");
      all_identical = all_identical && r.byte_identical;
      records.push_back(std::move(r));
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
