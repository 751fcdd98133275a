#include "service/solver_knobs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ilp/mip_solver.hpp"
#include "lp/types.hpp"
#include "service/json.hpp"
#include "support/rng.hpp"

namespace gmm::service {
namespace {

Json parse_object(const std::string& text) {
  const JsonParseResult parsed = parse_json(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.value;
}

TEST(SolverKnobs, EmptyRequestKeepsDefaults) {
  SolverKnobs knobs;
  std::string reason;
  ASSERT_TRUE(parse_solver_knobs(parse_object("{}"), knobs, reason));
  EXPECT_LT(knobs.gap, 0.0);
  EXPECT_LT(knobs.max_nodes, 0);
  EXPECT_LT(knobs.time_limit_ms, 0.0);
  EXPECT_EQ(knobs.threads, 1);  // the v1 wire default
  EXPECT_LT(knobs.max_stored_bases, 0);
}

TEST(SolverKnobs, ParsesFullOptionsObject) {
  SolverKnobs knobs;
  std::string reason;
  ASSERT_TRUE(parse_solver_knobs(
      parse_object(R"({"options":{"gap":0.02,"max_nodes":5000,)"
                   R"("time_limit_ms":1500,"threads":4,)"
                   R"("max_stored_bases":0}})"),
      knobs, reason))
      << reason;
  EXPECT_DOUBLE_EQ(knobs.gap, 0.02);
  EXPECT_EQ(knobs.max_nodes, 5000);
  EXPECT_DOUBLE_EQ(knobs.time_limit_ms, 1500.0);
  EXPECT_EQ(knobs.threads, 4);
  EXPECT_EQ(knobs.max_stored_bases, 0);  // 0 is valid: disable the cache
}

TEST(SolverKnobs, OptionsOverrideLegacyFlatThreads) {
  SolverKnobs knobs;
  std::string reason;
  ASSERT_TRUE(parse_solver_knobs(
      parse_object(R"({"threads":8,"options":{"threads":2}})"), knobs,
      reason));
  EXPECT_EQ(knobs.threads, 2);

  // Flat alone still works (v1 compatibility).
  ASSERT_TRUE(
      parse_solver_knobs(parse_object(R"({"threads":8})"), knobs, reason));
  EXPECT_EQ(knobs.threads, 8);
}

TEST(SolverKnobs, RejectsOutOfRangeValues) {
  const char* bad[] = {
      R"({"options":{"gap":-0.1}})",
      R"({"options":{"gap":1.01}})",
      R"({"options":{"gap":"small"}})",
      R"({"options":{"max_nodes":0}})",
      R"({"options":{"max_nodes":2.5}})",
      R"({"options":{"max_nodes":50000001}})",
      R"({"options":{"time_limit_ms":0}})",
      R"({"options":{"time_limit_ms":3600001}})",
      R"({"options":{"threads":-1}})",
      R"({"options":{"threads":1025}})",
      R"({"options":{"max_stored_bases":-1}})",
      R"({"threads":"four"})",
      R"({"threads":1.5})",
  };
  for (const char* text : bad) {
    SolverKnobs knobs;
    std::string reason;
    EXPECT_FALSE(parse_solver_knobs(parse_object(text), knobs, reason))
        << text;
    EXPECT_FALSE(reason.empty()) << text;
  }
}

TEST(SolverKnobs, RejectsUnknownAndMistypedOptions) {
  SolverKnobs knobs;
  std::string reason;
  EXPECT_FALSE(parse_solver_knobs(
      parse_object(R"({"options":{"gapp":0.1}})"), knobs, reason));
  EXPECT_NE(reason.find("gapp"), std::string::npos) << reason;
  // A knob the server no longer has is unknown like any typo.
  EXPECT_FALSE(parse_solver_knobs(
      parse_object(R"({"options":{"lp_engine":"dense"}})"), knobs, reason));
  EXPECT_NE(reason.find("unknown solver knob 'lp_engine'"), std::string::npos)
      << reason;
  EXPECT_FALSE(parse_solver_knobs(parse_object(R"({"options":[1]})"), knobs,
                                  reason));
  EXPECT_FALSE(parse_solver_knobs(parse_object(R"({"options":"fast"})"),
                                  knobs, reason));
}

TEST(SolverKnobs, ApplyMapsOntoMipOptions) {
  SolverKnobs knobs;
  knobs.gap = 0.03;
  knobs.max_nodes = 777;
  knobs.time_limit_ms = 2500.0;
  knobs.threads = 4;
  knobs.max_stored_bases = 128;
  ilp::MipOptions mip;
  apply_solver_knobs(knobs, /*max_threads_per_solve=*/8, mip);
  EXPECT_DOUBLE_EQ(mip.rel_gap, 0.03);
  EXPECT_EQ(mip.node_limit, 777);
  EXPECT_DOUBLE_EQ(mip.time_limit_seconds, 2.5);
  EXPECT_EQ(mip.max_stored_bases, 128u);
  EXPECT_EQ(mip.num_threads, 4);
}

TEST(SolverKnobs, ApplyLeavesDefaultsWhenUnset) {
  const ilp::MipOptions defaults;
  ilp::MipOptions mip;
  apply_solver_knobs(SolverKnobs{}, /*max_threads_per_solve=*/8, mip);
  EXPECT_DOUBLE_EQ(mip.rel_gap, defaults.rel_gap);
  EXPECT_EQ(mip.node_limit, defaults.node_limit);
  EXPECT_DOUBLE_EQ(mip.time_limit_seconds, defaults.time_limit_seconds);
  EXPECT_EQ(mip.max_stored_bases, defaults.max_stored_bases);
  EXPECT_EQ(mip.num_threads, 1);  // the wire default, not the cap
}

TEST(SolverKnobs, ThreadsCapIsOperatorPolicyAndClamps) {
  // The per-solve cap differs from knob validation: an in-range ask above
  // the operator's cap is CLAMPED, not rejected — the cap is deployment
  // policy, not a client bug.
  SolverKnobs knobs;
  knobs.threads = 64;
  ilp::MipOptions mip;
  apply_solver_knobs(knobs, /*max_threads_per_solve=*/8, mip);
  EXPECT_EQ(mip.num_threads, 8);

  knobs.threads = 0;  // "the server's cap"
  apply_solver_knobs(knobs, /*max_threads_per_solve=*/6, mip);
  EXPECT_EQ(mip.num_threads, 6);
}

TEST(SolverKnobs, TimeLimitWireBoundaryGrid) {
  // The wire floor is kMinTimeLimitMs: 0, negatives, and sub-minimum
  // fractions are REJECTED (never clamped, and never reinterpreted as
  // "no limit").  Exactly the minimum is accepted.
  for (const char* text : {
           R"({"options":{"time_limit_ms":0}})",
           R"({"options":{"time_limit_ms":-1}})",
           R"({"options":{"time_limit_ms":-0.001}})",
           R"({"options":{"time_limit_ms":0.5}})",
       }) {
    SolverKnobs knobs;
    std::string reason;
    EXPECT_FALSE(parse_solver_knobs(parse_object(text), knobs, reason))
        << text;
    EXPECT_FALSE(reason.empty()) << text;
    // A rejected knob must not leak a partial value into the struct.
    EXPECT_LT(knobs.time_limit_ms, 0.0) << text;
  }
  SolverKnobs knobs;
  std::string reason;
  ASSERT_TRUE(parse_solver_knobs(
      parse_object(R"({"options":{"time_limit_ms":1}})"), knobs, reason))
      << reason;
  EXPECT_DOUBLE_EQ(knobs.time_limit_ms, SolverKnobs::kMinTimeLimitMs);
}

TEST(SolverKnobs, ProgrammaticZeroBudgetMeansExpiredNotUnlimited) {
  // time_limit_ms = 0.0 cannot arrive over the wire, but a programmatic
  // caller can set it.  The boundary contract: ANY set value is a finite
  // budget — 0.0 is an already-expired one, never "no limit".  A solve
  // under it must stop with kTimeLimit at the first limit check.
  SolverKnobs knobs;
  knobs.time_limit_ms = 0.0;
  ilp::MipOptions mip;
  apply_solver_knobs(knobs, /*max_threads_per_solve=*/8, mip);
  EXPECT_DOUBLE_EQ(mip.time_limit_seconds, 0.0);

  support::Rng rng(11);
  lp::Model m;
  std::vector<lp::Index> vars;
  for (int j = 0; j < 18; ++j) {
    vars.push_back(
        m.add_binary(static_cast<double>(rng.uniform_int(-30, -1))));
  }
  lp::LinExpr knap;
  std::int64_t total = 0;
  for (const lp::Index j : vars) {
    const std::int64_t w = rng.uniform_int(1, 20);
    knap.add(j, static_cast<double>(w));
    total += w;
  }
  m.add_constraint(knap, lp::Sense::kLessEqual,
                   static_cast<double>(total / 2));

  const ilp::MipResult r = ilp::solve_mip(m, mip);
  EXPECT_EQ(r.status, lp::SolveStatus::kTimeLimit);
  EXPECT_EQ(r.stop_reason, lp::SolveStatus::kTimeLimit);
}

TEST(SolverKnobs, UnsetSentinelKeepsUnlimitedBudget) {
  ilp::MipOptions mip;
  apply_solver_knobs(SolverKnobs{}, /*max_threads_per_solve=*/8, mip);
  EXPECT_EQ(mip.time_limit_seconds, lp::kInf);  // only the sentinel keeps it
}

TEST(SolverKnobs, LanesKnobParsesAndRejectsOutOfRange) {
  for (const char* text : {R"({"options":{"lanes":0}})",
                           R"({"options":{"lanes":7}})",
                           R"({"options":{"lanes":-1}})",
                           R"({"options":{"lanes":2.5}})",
                           R"({"options":{"lanes":"three"}})"}) {
    SolverKnobs knobs;
    std::string reason;
    EXPECT_FALSE(parse_solver_knobs(parse_object(text), knobs, reason))
        << text;
  }
  for (const int lanes : {1, 3, SolverKnobs::kMaxLanes}) {
    SolverKnobs knobs;
    std::string reason;
    ASSERT_TRUE(parse_solver_knobs(
        parse_object(R"({"options":{"lanes":)" + std::to_string(lanes) + "}}"),
        knobs, reason))
        << reason;
    EXPECT_EQ(knobs.lanes, lanes);
  }
  SolverKnobs unset;
  std::string reason;
  ASSERT_TRUE(parse_solver_knobs(parse_object("{}"), unset, reason));
  EXPECT_LT(unset.lanes, 1);  // unset: the service picks its default
  SolverKnobs set;
  set.lanes = 4;
  EXPECT_NE(solver_knobs_to_json(set).dump().find("\"lanes\":4"),
            std::string::npos);
}

TEST(SolverKnobs, ToJsonEmitsOnlySetKnobs) {
  EXPECT_EQ(solver_knobs_to_json(SolverKnobs{}).dump(), "{}");
  SolverKnobs knobs;
  knobs.gap = 0.01;
  knobs.threads = 2;
  const std::string text = solver_knobs_to_json(knobs).dump();
  EXPECT_NE(text.find("\"gap\":0.01"), std::string::npos) << text;
  EXPECT_NE(text.find("\"threads\":2"), std::string::npos) << text;
  EXPECT_EQ(text.find("max_nodes"), std::string::npos) << text;
}

}  // namespace
}  // namespace gmm::service
