// Command-line mapper: the library as a standalone tool.
//
//   mapper_cli <board-file> <design-file>... [options]
//
// Options:
//   --complete     solve the flat (complete) formulation instead of the
//                  global/detailed pipeline (single-design mode only)
//   --portfolio    race several solver configurations concurrently and
//                  return the first lane to prove (single-design mode
//                  only); prints the per-lane race table
//   --lanes N      portfolio lane count, 1..6 (default 3)
//   --devices N    split a single-device board round-robin across N
//                  identical FPGAs and map with the sharded mapper
//                  (single-design mode only); boards whose files already
//                  declare devices shard automatically
//   --csv          machine-readable placement dump instead of tables
//   --map          append the per-instance memory-map report
//   --threads N    branch & bound workers per solve (default 1; 0 = all
//                  hardware threads)
//   --jobs N       map the given designs as one batch over an N-worker
//                  pool (default: one worker per design, capped at the
//                  hardware concurrency); implied when several design
//                  files are given
//
// Reads the text formats of arch_io/design_io (see examples/data/ for
// samples), runs the requested formulation through mapping::solve (which
// certifies the answer), and prints the assignment, placements and solve
// statistics.  Multi-device boards take the sharded formulation and also
// report each structure's device and the stitch transfer cost.  Batch
// mode runs every design through mapping::solve as well (global
// formulation), sharing the parsed board read-only across the workers.
// Exits 1 when any design maps to no certified answer.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/solve.hpp"
#include "report/placement_report.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <board-file> <design-file>... [--complete] "
               "[--portfolio] [--lanes N] [--devices N] [--csv] [--map] "
               "[--threads N] [--jobs N]\n",
               argv0);
  return 2;
}

bool parse_count(const char* text, int& out) {
  std::int64_t value = 0;
  if (!gmm::support::parse_int(text, value) || value < 0 || value > 1024) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

struct ParsedDesign {
  std::string path;
  gmm::design::Design design;
};

int report_single(const gmm::arch::Board& board,
                  const gmm::design::Design& design,
                  gmm::mapping::Formulation formulation, bool csv,
                  bool memory_map, const gmm::mapping::SolveOutcome& r) {
  using namespace gmm;
  const mapping::GlobalAssignment& assignment = r.assignment;
  const mapping::DetailedMapping& detailed = r.detailed;
  const std::vector<int>* device_of =
      board.multi_device() && !r.device_of.empty() ? &r.device_of : nullptr;
  if ((r.status != lp::SolveStatus::kOptimal &&
       r.status != lp::SolveStatus::kFeasible) ||
      !r.has_mapping()) {
    std::fprintf(stderr, "mapping failed: %s\n",
                 r.certify_failure.empty() ? lp::to_string(r.status)
                                           : r.certify_failure.c_str());
    return 1;
  }

  if (csv) {
    std::printf("structure,type,instance,first_port,ports,config,offset_bits,"
                "block_bits,kind\n");
    for (const mapping::PlacedFragment& f : detailed.fragments) {
      const arch::BankType& type = board.type(f.type);
      std::printf("%s,%s,%lld,%lld,%lld,%s,%lld,%lld,%s\n",
                  design.at(f.ds).name.c_str(), type.name.c_str(),
                  static_cast<long long>(f.instance),
                  static_cast<long long>(f.first_port),
                  static_cast<long long>(f.ports),
                  type.configs[f.config_index].to_string().c_str(),
                  static_cast<long long>(f.offset_bits),
                  static_cast<long long>(f.block_bits),
                  mapping::to_string(f.kind));
    }
    return 0;
  }

  std::printf("%s mapping of '%s' onto '%s': %s, objective %.0f (%.3fs)\n\n",
              formulation == mapping::Formulation::kGlobal
                  ? "global/detailed"
                  : mapping::to_string(formulation),
              design.name().c_str(), board.name().c_str(),
              lp::to_string(r.status), assignment.objective,
              r.effort.total_seconds());
  std::vector<std::string> headers = {"Structure", "Depth x Width",
                                      "Bank type", "Fragments"};
  if (device_of != nullptr) headers.insert(headers.begin() + 2, "Device");
  report::TextTable table(headers);
  table.set_alignment(0, report::Align::kLeft);
  table.set_alignment(2, report::Align::kLeft);
  if (device_of != nullptr) table.set_alignment(3, report::Align::kLeft);
  for (std::size_t d = 0; d < design.size(); ++d) {
    const design::DataStructure& ds = design.at(d);
    std::vector<std::string> row = {
        ds.name, std::to_string(ds.depth) + "x" + std::to_string(ds.width),
        board.type(static_cast<std::size_t>(assignment.type_of[d])).name,
        std::to_string(detailed.fragment_count(d))};
    if (device_of != nullptr) {
      const int dev = (*device_of)[d];
      row.insert(row.begin() + 2,
                 dev < 0 ? "-"
                         : board.device(static_cast<std::size_t>(dev)).name);
    }
    table.add_row(row);
  }
  table.print(std::cout);
  if (memory_map) {
    std::printf("\n");
    report::write_placement_report(std::cout, design, board, detailed);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmm;
  std::optional<mapping::Formulation> asked;  // --complete / --portfolio
  int lanes = 0;  // 0 = mapping::kDefaultPortfolioLanes
  bool csv = false;
  bool memory_map = false;
  int threads = 1;
  int jobs = 0;  // 0 = auto (one per design, capped at hardware)
  int devices = 0;  // 0 = as declared in the board file
  bool jobs_given = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--complete") == 0 ||
        std::strcmp(argv[i], "--portfolio") == 0) {
      const auto formulation = mapping::parse_formulation(argv[i] + 2);
      if (asked.has_value() && asked != formulation) {
        std::fprintf(stderr,
                     "--portfolio and --complete are exclusive (the "
                     "portfolio menu already includes a complete lane)\n");
        return usage(argv[0]);
      }
      asked = formulation;
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], lanes) || lanes < 1 ||
          lanes > mapping::kMaxPortfolioLanes) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], devices) || devices < 1) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--map") == 0) {
      memory_map = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], threads)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], jobs)) return usage(argv[0]);
      jobs_given = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) return usage(argv[0]);

  std::ifstream board_file(positional[0]);
  if (!board_file) {
    std::fprintf(stderr, "cannot open board file %s\n", positional[0]);
    return 1;
  }
  arch::BoardParseResult parsed_board = arch::parse_board(board_file);
  if (!parsed_board.ok) {
    std::fprintf(stderr, "%s: %s\n", positional[0],
                 parsed_board.error.c_str());
    return 1;
  }
  arch::Board board = std::move(parsed_board.board);
  if (devices > 1) {
    if (board.has_explicit_devices()) {
      std::fprintf(stderr,
                   "--devices only applies to single-device board files "
                   "(%s already declares devices)\n",
                   positional[0]);
      return 1;
    }
    board = arch::split_across_devices(board, devices);
  }

  std::vector<ParsedDesign> designs;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::ifstream design_file(positional[i]);
    if (!design_file) {
      std::fprintf(stderr, "cannot open design file %s\n", positional[i]);
      return 1;
    }
    design::DesignParseResult parsed = design::parse_design(design_file);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", positional[i], parsed.error.c_str());
      return 1;
    }
    designs.push_back({positional[i], std::move(parsed.design)});
  }

  mapping::PipelineOptions pipeline_options;
  pipeline_options.global.mip.num_threads = threads;

  // ---- single-design mode ----------------------------------------------
  if (designs.size() == 1 && !jobs_given) {
    const design::Design& design = designs[0].design;
    if (asked == mapping::Formulation::kComplete && board.multi_device()) {
      std::fprintf(stderr,
                   "--complete is a single-device option; multi-device "
                   "boards use the sharded mapper\n");
      return usage(argv[0]);
    }
    mapping::SolveSpec spec;
    spec.formulation = asked.value_or(board.multi_device()
                                          ? mapping::Formulation::kSharded
                                          : mapping::Formulation::kGlobal);
    spec.pipeline = pipeline_options;
    spec.lanes = lanes;
    const mapping::SolveOutcome r = mapping::solve(design, board, spec);
    if (!csv && asked == mapping::Formulation::kPortfolio) {
      report::TextTable race({"Lane", "Kind", "Status", "Objective",
                              "Wall (s)", "B&B nodes"});
      race.set_alignment(0, report::Align::kLeft);
      race.set_alignment(1, report::Align::kLeft);
      race.set_alignment(2, report::Align::kLeft);
      for (const mapping::LaneReport& lane : r.lanes) {
        race.add_row(
            {lane.name, mapping::to_string(lane.kind),
             lane.ran ? lp::to_string(lane.status) : "never ran",
             lane.usable
                 ? std::to_string(static_cast<long long>(lane.objective))
                 : "-",
             support::format_fixed(lane.seconds, 3),
             std::to_string(static_cast<long long>(lane.effort.bnb_nodes))});
      }
      race.print(std::cout);
      std::printf("\nportfolio: %zu lanes, winner %s, first proof in "
                  "%.3fs, %d lanes cancelled\n\n",
                  r.lanes.size(),
                  r.winner >= 0 ? r.winner_name.c_str() : "none",
                  r.first_prove_seconds, r.lanes_cancelled);
    } else if (!csv && r.has_mapping() &&
               spec.formulation == mapping::Formulation::kSharded) {
      std::printf("sharded over %d devices: %d shards, stitch cost %.0f, "
                  "%lld cut edges, %d repair rounds\n",
                  r.shard.devices, r.shard.shards, r.shard.stitch_cost,
                  static_cast<long long>(r.shard.cut_edges),
                  r.shard.repair_rounds);
    }
    return report_single(board, design, spec.formulation, csv, memory_map,
                         r);
  }

  // ---- batch mode ------------------------------------------------------
  if (asked.has_value() || board.multi_device()) {
    std::fprintf(stderr,
                 "batch mode maps each design with the single-device "
                 "pipeline; --complete, --portfolio and multi-device boards "
                 "(--devices) are single-design options\n");
    return usage(argv[0]);
  }
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::min(designs.size(),
                 static_cast<std::size_t>(
                     std::max(1u, std::thread::hardware_concurrency()))));
  }
  // Each design gets the single-design global solve, certification
  // included; at most `jobs` of them run at once.
  mapping::SolveSpec spec;
  spec.pipeline = pipeline_options;
  std::vector<mapping::SolveOutcome> outcomes(designs.size());
  support::ThreadPool pool(static_cast<std::size_t>(jobs));
  const support::WallTimer timer;
  support::parallel_for(pool, designs.size(), [&](std::size_t i) {
    outcomes[i] = mapping::solve(designs[i].design, board, spec);
  });
  const double seconds = timer.seconds();

  int exit_code = 0;
  std::size_t mapped = 0;
  report::TextTable table({"Design", "Status", "Objective", "Fragments",
                           "Solve (s)", "B&B nodes"});
  table.set_alignment(0, report::Align::kLeft);
  table.set_alignment(1, report::Align::kLeft);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const mapping::SolveOutcome& r = outcomes[i];
    const bool ok = r.has_mapping() &&
                    (r.status == lp::SolveStatus::kOptimal ||
                     r.status == lp::SolveStatus::kFeasible);
    if (ok) {
      ++mapped;
    } else {
      exit_code = 1;
      if (!r.certify_failure.empty()) {
        std::fprintf(stderr, "%s: mapping failed: %s\n",
                     designs[i].path.c_str(), r.certify_failure.c_str());
      }
    }
    table.add_row({designs[i].design.name(), lp::to_string(r.status),
                   ok ? std::to_string(static_cast<long long>(
                            r.assignment.objective))
                      : "-",
                   ok ? std::to_string(r.detailed.fragments.size()) : "-",
                   support::format_fixed(r.effort.total_seconds(), 3),
                   std::to_string(static_cast<long long>(r.effort.bnb_nodes))});
  }
  table.print(std::cout);
  std::printf("\n%zu/%zu designs mapped in %.3fs over %d workers "
              "(%.1f designs/s)\n",
              mapped, outcomes.size(), seconds, jobs,
              seconds > 0 ? static_cast<double>(outcomes.size()) / seconds
                          : 0.0);
  return exit_code;
}
