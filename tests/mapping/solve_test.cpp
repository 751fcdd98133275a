// The one solve path (mapping/solve.hpp).
//
// Contracts under test, on every sample board and design in
// examples/data at 1 thread:
//  * for each formulation, mapping::solve returns the same status,
//    objective, assignment and fragments as the direct engine call;
//  * certify_mapping accepts every formulation's answer and rejects a
//    wrong objective, a fragment moved onto an occupied port range, and
//    an assignment that disagrees with its fragments, and its objective
//    recompute equals CostTable::assignment_objective bit for bit;
//  * an answer that fails certification (injected through the
//    mapping.certify:corrupt fault point) leaves solve() with no mapping.
#include "mapping/solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/remap.hpp"
#include "mapping/validate.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"
#include "workload/workload_gen.hpp"

#ifndef GMM_EXAMPLE_DATA_DIR
#define GMM_EXAMPLE_DATA_DIR "examples/data"
#endif

namespace gmm::mapping {
namespace {

struct Sample {
  std::string label;
  arch::Board board;
  design::Design design;
};

/// Every (board, design) pair of the sample data.
std::vector<Sample> samples() {
  std::vector<Sample> out;
  for (const char* board_file :
       {"board_xcv300.txt", "board_dual_fpga.txt", "board_quad_fpga.txt"}) {
    std::ifstream board_in(std::string(GMM_EXAMPLE_DATA_DIR) + "/" +
                           board_file);
    arch::BoardParseResult board = arch::parse_board(board_in);
    EXPECT_TRUE(board.ok) << board_file << ": " << board.error;
    for (const char* design_file :
         {"design_fft.txt", "design_filter.txt", "design_histogram.txt"}) {
      std::ifstream design_in(std::string(GMM_EXAMPLE_DATA_DIR) + "/" +
                              design_file);
      design::DesignParseResult design = design::parse_design(design_in);
      EXPECT_TRUE(design.ok) << design_file << ": " << design.error;
      out.push_back({std::string(board_file) + " x " + design_file,
                     board.board, std::move(design.design)});
    }
  }
  return out;
}

bool same_fragment(const PlacedFragment& a, const PlacedFragment& b) {
  return a.ds == b.ds && a.type == b.type && a.instance == b.instance &&
         a.config_index == b.config_index && a.kind == b.kind &&
         a.ports == b.ports && a.first_port == b.first_port &&
         a.offset_bits == b.offset_bits && a.block_bits == b.block_bits &&
         a.words_covered == b.words_covered &&
         a.bits_covered == b.bits_covered;
}

void expect_same_mapping(const SolveOutcome& got, lp::SolveStatus status,
                         const GlobalAssignment& assignment,
                         const DetailedMapping& detailed,
                         const std::string& label) {
  EXPECT_EQ(got.status, status) << label;
  EXPECT_EQ(got.assignment.objective, assignment.objective) << label;
  EXPECT_EQ(got.assignment.type_of, assignment.type_of) << label;
  EXPECT_EQ(got.detailed.success, detailed.success) << label;
  ASSERT_EQ(got.detailed.fragments.size(), detailed.fragments.size())
      << label;
  for (std::size_t i = 0; i < detailed.fragments.size(); ++i) {
    EXPECT_TRUE(same_fragment(got.detailed.fragments[i],
                              detailed.fragments[i]))
        << label << " fragment " << i;
  }
}

SolveSpec spec_for(Formulation formulation) {
  SolveSpec spec;
  spec.formulation = formulation;
  spec.max_threads = 1;
  return spec;
}

TEST(Solve, GlobalMatchesThePipeline) {
  for (const Sample& s : samples()) {
    const PipelineResult direct = map_pipeline(s.design, s.board);
    ASSERT_EQ(direct.status, lp::SolveStatus::kOptimal) << s.label;
    const SolveOutcome got =
        solve(s.design, s.board, spec_for(Formulation::kGlobal));
    expect_same_mapping(got, direct.status, direct.assignment,
                        direct.detailed, s.label);
    EXPECT_EQ(got.mip.nodes, direct.mip.nodes) << s.label;
    EXPECT_EQ(got.retries, direct.retries) << s.label;
    EXPECT_EQ(got.shard.stitch_cost, 0.0) << s.label;
  }
}

TEST(Solve, GlobalWithAPriorMatchesRemap) {
  for (const Sample& s : samples()) {
    const PipelineResult cold = map_pipeline(s.design, s.board);
    ASSERT_EQ(cold.status, lp::SolveStatus::kOptimal) << s.label;
    RemapOptions options;
    options.pinned_structures = {0};
    options.migration_penalty = 1e-3;
    const RemapResult direct =
        remap(s.design, s.board, cold.assignment.type_of, options);
    SolveSpec spec = spec_for(Formulation::kGlobal);
    spec.prior_type_of = cold.assignment.type_of;
    spec.pinned_structures = options.pinned_structures;
    spec.migration_penalty = options.migration_penalty;
    const SolveOutcome got = solve(s.design, s.board, spec);
    expect_same_mapping(got, direct.result.status, direct.result.assignment,
                        direct.result.detailed, s.label);
    EXPECT_EQ(got.mip.nodes, direct.result.mip.nodes) << s.label;
  }
}

TEST(Solve, CompleteMatchesTheCompleteMapper) {
  for (const Sample& s : samples()) {
    const CostTable table(s.design, s.board);
    const CompleteResult direct = map_complete(s.design, s.board, table);
    ASSERT_EQ(direct.status, lp::SolveStatus::kOptimal) << s.label;
    const SolveOutcome got =
        solve(s.design, s.board, spec_for(Formulation::kComplete));
    expect_same_mapping(got, direct.status, direct.assignment,
                        direct.detailed, s.label);
    EXPECT_EQ(got.mip.nodes, direct.mip.nodes) << s.label;
    // The CostTable build is charged on top of the mapper's own effort.
    EXPECT_GE(got.effort.preprocess_seconds, direct.effort.preprocess_seconds);
  }
}

TEST(Solve, ShardedMatchesTheShardMapper) {
  for (const Sample& s : samples()) {
    const ShardResult direct = map_sharded(s.design, s.board);
    ASSERT_EQ(direct.status, lp::SolveStatus::kOptimal) << s.label;
    const SolveOutcome got =
        solve(s.design, s.board, spec_for(Formulation::kSharded));
    expect_same_mapping(got, direct.status, direct.assignment,
                        direct.detailed, s.label);
    EXPECT_EQ(got.device_of, direct.device_of) << s.label;
    EXPECT_EQ(got.shard.shards, direct.stats.shards) << s.label;
    EXPECT_EQ(got.shard.stitch_cost, direct.stats.stitch_cost) << s.label;
    EXPECT_EQ(got.shard.candidate_solves, direct.stats.candidate_solves);
  }
}

TEST(Solve, FormulationNamesRoundTrip) {
  for (const Formulation f :
       {Formulation::kGlobal, Formulation::kComplete, Formulation::kSharded}) {
    EXPECT_EQ(parse_formulation(to_string(f)), f) << to_string(f);
  }
  EXPECT_FALSE(parse_formulation("portfolio").has_value());
  EXPECT_FALSE(parse_formulation("mystery").has_value());
  EXPECT_FALSE(parse_formulation("").has_value());
}

class SolveFault : public ::testing::Test {
 protected:
  void TearDown() override { support::global_faults().disarm(); }
};

TEST_F(SolveFault, FailedCertificationKeepsNoMapping) {
  const Sample s = samples().front();
  std::string error;
  ASSERT_TRUE(support::global_faults().arm(
      "seed=1,mapping.certify:corrupt@once", error))
      << error;
  const SolveOutcome failed =
      solve(s.design, s.board, spec_for(Formulation::kGlobal));
  EXPECT_EQ(failed.status, lp::SolveStatus::kNumericalFailure);
  EXPECT_FALSE(failed.has_mapping());
  EXPECT_TRUE(failed.detailed.fragments.empty());
  EXPECT_NE(failed.certify_failure.find("injected"), std::string::npos)
      << failed.certify_failure;

  // The clause fired once; the next answer certifies.
  const SolveOutcome next =
      solve(s.design, s.board, spec_for(Formulation::kGlobal));
  EXPECT_EQ(next.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(next.has_mapping());
  EXPECT_TRUE(next.certify_failure.empty());
}

TEST(Certify, AcceptsEverySampleAnswer) {
  for (const Sample& s : samples()) {
    for (const Formulation f : {Formulation::kGlobal, Formulation::kComplete,
                                Formulation::kSharded}) {
      const SolveOutcome out = solve(s.design, s.board, spec_for(f));
      const std::string label = s.label + " " + to_string(f);
      ASSERT_TRUE(out.has_mapping()) << label;
      EXPECT_TRUE(out.certify_failure.empty()) << label;
      const Certificate certificate =
          certify_mapping(s.design, s.board, out.assignment, out.detailed,
                          out.shard.stitch_cost);
      EXPECT_TRUE(certificate.ok())
          << label << ": " << certificate.problems.front();
      EXPECT_NEAR(certificate.objective, out.assignment.objective,
                  1e-6 * std::max(1.0, out.assignment.objective))
          << label;
    }
  }
}

TEST(Certify, ObjectiveIsTheCostTablesToTheBit) {
  // certify_mapping prices only the n assigned plans; its sum must be the
  // full table's, bit for bit, under any weights.
  const auto& points = workload::table3_points();
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Rng rng(seed);
    const workload::Table3Instance inst =
        workload::build_instance(points[seed % 3], seed);
    workload::DesignGenOptions gen;
    gen.num_segments = rng.uniform_int(4, 14);
    gen.seed = seed;
    gen.all_conflicting = rng.bernoulli(0.5);
    gen.paper_access_model = rng.bernoulli(0.5);
    const design::Design design = workload::generate_design(inst.board, gen);
    const SolveOutcome out =
        solve(design, inst.board, spec_for(Formulation::kGlobal));
    if (!out.has_mapping()) continue;
    ++checked;
    std::vector<CostWeights> weights = {
        CostWeights{}, normalized_weights(design, inst.board)};
    for (int k = 0; k < 3; ++k) {
      weights.push_back({.latency = rng.uniform_real() * 4.0,
                         .pin_delay = rng.uniform_real() * 4.0,
                         .pin_io = rng.uniform_real() * 4.0});
    }
    for (const CostWeights& w : weights) {
      const double table = CostTable(design, inst.board, w)
                               .assignment_objective(out.assignment.type_of);
      const Certificate certificate = certify_mapping(
          design, inst.board, out.assignment, out.detailed, 0.0, w);
      // A weight other than the solve's own reports a mismatch, but the
      // recompute is still the table's.
      EXPECT_TRUE(certificate.problems.empty() ||
                  certificate.problems.front().find("objective") !=
                      std::string::npos)
          << "seed " << seed << ": " << certificate.problems.front();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(certificate.objective),
                std::bit_cast<std::uint64_t>(table))
          << "seed " << seed << ": " << certificate.objective << " vs "
          << table;
    }
  }
  EXPECT_GE(checked, 30);
}

/// The pipeline's answer for the FFT sample on the single-device board.
SolveOutcome fft_answer(Sample& s) {
  s = samples().front();
  SolveOutcome out = solve(s.design, s.board, spec_for(Formulation::kGlobal));
  EXPECT_TRUE(out.has_mapping());
  EXPECT_TRUE(certify_mapping(s.design, s.board, out.assignment, out.detailed)
                  .ok());
  return out;
}

TEST(Certify, RejectsAWrongObjective) {
  Sample s;
  SolveOutcome out = fft_answer(s);
  out.assignment.objective += 1.0;
  const Certificate certificate =
      certify_mapping(s.design, s.board, out.assignment, out.detailed);
  ASSERT_FALSE(certificate.ok());
  EXPECT_NE(certificate.problems.front().find("objective"), std::string::npos)
      << certificate.problems.front();
  // A stitch term the mapping does not carry is a wrong objective too.
  out.assignment.objective -= 1.0;
  EXPECT_FALSE(certify_mapping(s.design, s.board, out.assignment,
                               out.detailed, /*stitch_cost=*/5.0)
                   .ok());
}

TEST(Certify, RejectsAFragmentMovedOntoAnOccupiedPortRange) {
  Sample s;
  SolveOutcome out = fft_answer(s);
  std::vector<PlacedFragment>& fragments = out.detailed.fragments;
  // Two fragments of different structures on one bank type, on distinct
  // ports: move the second onto the first's port range.
  bool moved = false;
  for (std::size_t a = 0; a < fragments.size() && !moved; ++a) {
    for (std::size_t b = 0; b < fragments.size() && !moved; ++b) {
      if (fragments[a].ds == fragments[b].ds ||
          fragments[a].type != fragments[b].type ||
          (fragments[a].instance == fragments[b].instance &&
           fragments[a].first_port == fragments[b].first_port)) {
        continue;
      }
      fragments[b].instance = fragments[a].instance;
      fragments[b].first_port = fragments[a].first_port;
      moved = true;
    }
  }
  ASSERT_TRUE(moved) << "sample has no two structures on one bank type";
  EXPECT_FALSE(
      certify_mapping(s.design, s.board, out.assignment, out.detailed).ok());
}

TEST(Certify, RejectsAnAssignmentThatDisagreesWithItsFragments) {
  Sample s;
  SolveOutcome out = fft_answer(s);
  ASSERT_GE(s.board.num_types(), 2u);
  int& type = out.assignment.type_of.front();
  type = (type + 1) % static_cast<int>(s.board.num_types());
  const Certificate certificate =
      certify_mapping(s.design, s.board, out.assignment, out.detailed);
  ASSERT_FALSE(certificate.ok());
  EXPECT_NE(certificate.problems.front().find("assigned elsewhere"),
            std::string::npos)
      << certificate.problems.front();
}

TEST(Certify, RejectsAnAssignmentOutsideTheBoard) {
  Sample s;
  SolveOutcome out = fft_answer(s);
  out.assignment.type_of.front() = static_cast<int>(s.board.num_types());
  EXPECT_FALSE(
      certify_mapping(s.design, s.board, out.assignment, out.detailed).ok());
  out.assignment.type_of.pop_back();
  EXPECT_FALSE(
      certify_mapping(s.design, s.board, out.assignment, out.detailed).ok());
}

}  // namespace
}  // namespace gmm::mapping
