// Parser mutation fuzz wall: every text parser the service exposes to a
// client or an operator takes 300 seeds of mutated valid inputs.
//
// Inputs: design text (random designs with every conflict form, the
// sample files, a paper design), request lines (map in both protocol
// versions, the control methods), JSON (those lines plus a response and a
// stats line), board text (the sample boards and Table-3 boards) and
// fault specs.  Mutations, one to four stacked: byte flips (random bytes
// and the grammar's own punctuation), truncation, a duplicated or deleted
// line, a duplicated or deleted span, and for design text a `conflicts
// all` line dropped anywhere — before any segment, repeated, or into a
// design of zero or one structures.
//
// Contract: no input crashes (the sanitizer lane runs this wall) or
// throws, and every rejection carries a non-empty error.  An accepted
// input must also survive its writer: writing it and parsing that text
// back gives the same text again.
//
// Two more walls splice 19-digit values into valid boards and designs:
// what the parsers accept keeps every board and design total, and every
// assignment cost, in range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"
#include "mapping/cost_model.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workload/table3_suite.hpp"
#include "workload/workload_gen.hpp"

#ifndef GMM_EXAMPLE_DATA_DIR
#define GMM_EXAMPLE_DATA_DIR "examples/data"
#endif

namespace gmm {
namespace {

constexpr std::uint64_t kSeeds = 300;

std::string read_sample(const std::string& file) {
  std::ifstream in(std::string(GMM_EXAMPLE_DATA_DIR) + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_FALSE(text.str().empty()) << file;
  return text.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Bytes the grammars give meaning to, flipped in half of the byte flips.
constexpr char kPunctuation[] = {'"', '\\', '{', '}', '[', ']', ',', ':',
                                 '\n', '#', ' ', '0', '-', '.', '@', '=',
                                 'e', '\0'};

/// One mutation of `text`.  `conflicts_all` adds the design-only one.
std::string mutate(const std::string& text, support::Rng& rng,
                   bool conflicts_all) {
  std::string out = text;
  std::vector<std::string> lines = lines_of(out);
  switch (rng.uniform_int(0, conflicts_all ? 6 : 5)) {
    case 0:  // byte flip
      if (!out.empty()) {
        out[rng.index(out.size())] =
            rng.bernoulli(0.5)
                ? kPunctuation[rng.index(sizeof(kPunctuation))]
                : static_cast<char>(rng.uniform_int(0, 255));
      }
      return out;
    case 1:  // truncation
      out.resize(rng.index(out.size() + 1));
      return out;
    case 2:  // duplicated line
      if (!lines.empty()) {
        const std::size_t k = rng.index(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(k),
                     lines[k]);
      }
      return joined(lines);
    case 3:  // deleted line
      if (!lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.index(lines.size())));
      }
      return joined(lines);
    case 4:    // duplicated span
    case 5: {  // deleted span
      const std::size_t begin = rng.index(out.size() + 1);
      const std::size_t length = rng.index(out.size() - begin + 1);
      const std::string span = out.substr(begin, length);
      if (rng.bernoulli(0.5)) {
        out.insert(begin, span);
      } else {
        out.erase(begin, length);
      }
      return out;
    }
    default:  // a `conflicts all` line anywhere, the first line included
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.index(lines.size() + 1)),
                   "conflicts all");
      return joined(lines);
  }
}

/// One to four stacked mutations of a random member of `corpus`.
std::string mutant(const std::vector<std::string>& corpus, support::Rng& rng,
                   bool conflicts_all = false) {
  std::string text = corpus[rng.index(corpus.size())];
  for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k) {
    text = mutate(text, rng, conflicts_all);
  }
  return text;
}

/// A 19-digit value: the int64 edges the parsers' overflow checks guard,
/// or random digits, which past 9223372036854775807 must not parse.
std::string nineteen_digits(support::Rng& rng) {
  static const char* const kEdges[] = {"4611686018427387904",
                                       "9000000000000000000",
                                       "9223372036854775807"};
  if (rng.bernoulli(0.5)) return kEdges[rng.index(3)];
  std::string digits(1, static_cast<char>('1' + rng.index(9)));
  while (digits.size() < 19) digits += static_cast<char>('0' + rng.index(10));
  return digits;
}

/// `text` with one to three of its digit runs replaced by 19-digit values.
std::string splice_digits(const std::string& text, support::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  for (std::size_t i = 0; i < text.size();) {
    std::size_t j = i;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    if (j > i) runs.emplace_back(i, j);
    i = std::max(j, i + 1);
  }
  std::vector<std::size_t> picked;
  for (std::int64_t k = rng.uniform_int(1, 3); k > 0 && !runs.empty(); --k) {
    picked.push_back(rng.index(runs.size()));
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  std::string out = text;
  for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
    const auto [begin, end] = runs[*it];
    out.replace(begin, end - begin, nineteen_digits(rng));
  }
  return out;
}

std::string label(std::uint64_t seed, const std::string& text) {
  return "seed " + std::to_string(seed) + ", input:\n" + text;
}

// ---- per-parser checks ------------------------------------------------------

bool check_design(const std::string& text, const std::string& where) {
  design::DesignParseResult parsed;
  EXPECT_NO_THROW(parsed = design::parse_design_string(text)) << where;
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << where;
    return false;
  }
  const std::string written = design::design_to_string(parsed.design);
  const design::DesignParseResult again = design::parse_design_string(written);
  EXPECT_TRUE(again.ok) << where << "\nrewritten: " << again.error;
  EXPECT_EQ(design::design_to_string(again.design), written) << where;
  return true;
}

bool check_request(const std::string& line, const std::string& where) {
  service::Request request;
  EXPECT_NO_THROW(request = service::parse_request_line(line)) << where;
  switch (request.method) {
    case service::Method::kInvalid:
      EXPECT_FALSE(request.error.empty()) << where;
      return false;
    case service::Method::kMap:
      EXPECT_FALSE(request.id.empty()) << where;
      EXPECT_NE(request.map.design_text.empty(),
                request.map.design_path.empty())
          << where;
      if (!request.map.design_text.empty()) {
        check_design(request.map.design_text, where);
      }
      return true;
    case service::Method::kCancel:
      EXPECT_FALSE(request.target.empty()) << where;
      return true;
    default:
      return true;
  }
}

bool check_json(const std::string& text, const std::string& where) {
  service::JsonParseResult parsed;
  EXPECT_NO_THROW(parsed = service::parse_json(text)) << where;
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << where;
    return false;
  }
  const std::string dumped = parsed.value.dump();
  const service::JsonParseResult again = service::parse_json(dumped);
  EXPECT_TRUE(again.ok) << where << "\nrewritten: " << again.error;
  EXPECT_EQ(again.value.dump(), dumped) << where;
  return true;
}

bool check_board(const std::string& text, const std::string& where) {
  arch::BoardParseResult parsed;
  EXPECT_NO_THROW(parsed = arch::parse_board_string(text)) << where;
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << where;
    return false;
  }
  const std::string written = arch::board_to_string(parsed.board);
  const arch::BoardParseResult again = arch::parse_board_string(written);
  EXPECT_TRUE(again.ok) << where << "\nrewritten: " << again.error;
  EXPECT_EQ(arch::board_to_string(again.board), written) << where;
  return true;
}

bool check_fault_spec(const std::string& text, const std::string& where) {
  support::FaultSpec parsed;
  EXPECT_NO_THROW(parsed = support::parse_fault_spec(text)) << where;
  if (!parsed.ok) {
    EXPECT_FALSE(parsed.error.empty()) << where;
    return false;
  }
  const std::string written = support::fault_spec_to_string(parsed);
  const support::FaultSpec again = support::parse_fault_spec(written);
  EXPECT_TRUE(again.ok) << where << "\nrewritten: " << again.error;
  EXPECT_EQ(support::fault_spec_to_string(again), written) << where;
  return true;
}

// ---- valid corpora ----------------------------------------------------------

design::Design random_design(support::Rng& rng) {
  design::Design design(rng.bernoulli(0.2) ? "" : "fuzz");
  const std::int64_t n = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    design::DataStructure ds;
    ds.name = "s" + std::to_string(i);
    ds.depth = rng.uniform_int(1, 4096);
    ds.width = rng.uniform_int(1, 64);
    if (rng.bernoulli(0.5)) ds.reads = rng.uniform_int(1, 9999);
    if (rng.bernoulli(0.5)) ds.writes = rng.uniform_int(1, 9999);
    if (rng.bernoulli(0.3)) {
      const std::int64_t start = rng.uniform_int(0, 100);
      ds.lifetime = design::Lifetime{start, start + rng.uniform_int(1, 100)};
    }
    design.add(ds);
  }
  const double mode = rng.uniform_real();
  if (mode < 0.4) {
    design.set_all_conflicting();
  } else if (mode < 0.6) {
    design.derive_conflicts_from_lifetimes();
  } else if (n >= 2) {
    for (std::int64_t p = rng.uniform_int(0, 2 * n); p > 0; --p) {
      const std::size_t a = rng.index(static_cast<std::size_t>(n));
      const std::size_t b = rng.index(static_cast<std::size_t>(n));
      if (a != b) design.add_conflict(a, b);
    }
  }
  return design;
}

std::vector<std::string> design_corpus() {
  std::vector<std::string> corpus = {read_sample("design_fft.txt"),
                                     read_sample("design_filter.txt"),
                                     read_sample("design_histogram.txt")};
  corpus.push_back(design::design_to_string(
      workload::build_instance(workload::table3_points().front()).design));
  support::Rng rng(77);
  for (int k = 0; k < 16; ++k) {
    corpus.push_back(design::design_to_string(random_design(rng)));
  }
  return corpus;
}

std::vector<std::string> request_corpus() {
  const std::string design = read_sample("design_fft.txt");
  std::vector<std::string> corpus;
  service::JsonObject v2;
  v2["v"] = 2;
  v2["id"] = std::string("r1");
  v2["method"] = std::string("map");
  v2["board"] = std::string("xcv300");
  v2["design_text"] = design;
  v2["formulation"] = std::string("complete");
  v2["deadline_ms"] = 2500.0;
  service::JsonObject knobs;
  knobs["gap"] = 0.01;
  knobs["max_nodes"] = 1000;
  knobs["threads"] = 2;
  knobs["no_cache"] = true;
  v2["options"] = std::move(knobs);
  corpus.push_back(service::Json(v2).dump());
  service::JsonObject v1;
  v1["id"] = std::string("r2");
  v1["method"] = std::string("map");
  v1["design_text"] = design::design_to_string(
      workload::build_instance(workload::table3_points().front()).design);
  v1["complete"] = true;
  v1["threads"] = 1;
  corpus.push_back(service::Json(v1).dump());
  service::JsonObject path;
  path["id"] = std::string("r3");
  path["method"] = std::string("map");
  path["design_path"] = std::string("design.txt");
  path["board_text"] = read_sample("board_xcv300.txt");
  path["formulation"] = std::string("sharded");
  corpus.push_back(service::Json(path).dump());
  corpus.push_back(R"({"v":2,"id":"c1","method":"cancel","target":"r1"})");
  corpus.push_back(R"({"id":"p1","method":"ping"})");
  corpus.push_back(R"({"v":1,"id":"s1","method":"stats"})");
  corpus.push_back(R"({"method":"shutdown"})");
  return corpus;
}

std::vector<std::string> json_corpus() {
  std::vector<std::string> corpus = request_corpus();
  service::Response answer;
  answer.id = "r1";
  answer.method = "map";
  answer.v = 2;
  answer.status = service::ResponseStatus::kOk;
  answer.has_result = true;
  answer.solve_status = "optimal";
  answer.objective = 148260.5;
  answer.nodes = 17;
  answer.seconds = 0.0123;
  answer.placements.push_back({.segment = "coeffs",
                               .type = "BlockRAM",
                               .instance = 3,
                               .first_port = 1,
                               .ports = 1,
                               .config = "256x16",
                               .offset_bits = 4096,
                               .block_bits = 4096,
                               .kind = "full"});
  corpus.push_back(answer.to_line());
  service::Response stats;
  stats.id = "s1";
  stats.method = "stats";
  stats.status = service::ResponseStatus::kOk;
  stats.has_stats = true;
  stats.stats.accepted = 12;
  stats.stats.protocol_errors = 2;
  stats.stats.basis.loaded = 9;
  corpus.push_back(stats.to_line());
  corpus.push_back(R"([1,-2.5e-3,true,false,null,"é\n\"",{"a":[]}])");
  return corpus;
}

std::vector<std::string> board_corpus() {
  std::vector<std::string> corpus = {read_sample("board_xcv300.txt"),
                                     read_sample("board_dual_fpga.txt"),
                                     read_sample("board_quad_fpga.txt")};
  for (const std::size_t point : {0u, 4u, 8u}) {
    const workload::Table3Point& p = workload::table3_points()[point];
    const std::optional<arch::Board> board =
        workload::board_from_totals(p.totals);
    EXPECT_TRUE(board.has_value());
    if (board.has_value()) corpus.push_back(arch::board_to_string(*board));
  }
  return corpus;
}

const std::vector<std::string> kFaultSpecs = {
    "",
    "mapping.certify:corrupt@once",
    "seed=7,socket.write:partial@0.05,lu.refactor:singular@3",
    "seed=18446744073709551615,service.json:fail@always,"
    "cache.verify:corrupt",
    "socket.read:eintr@0.5, ilp.node:stall@2"};

// ---- the wall ---------------------------------------------------------------

/// A wall whose mutants all pass, or all fail, tests one side only.
void expect_both_outcomes(int accepted) {
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, static_cast<int>(kSeeds));
}

TEST(ParserFuzz, MutatedDesignTextNeverCrashesAndRejectsWithAMessage) {
  const std::vector<std::string> corpus = design_corpus();
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed);
    const std::string text = mutant(corpus, rng, /*conflicts_all=*/true);
    accepted += check_design(text, label(seed, text)) ? 1 : 0;
  }
  expect_both_outcomes(accepted);
}

TEST(ParserFuzz, ConflictsAllAnywhereParsesToAConsistentRelation) {
  // `conflicts all` covers the structures declared before it: placed
  // first it covers none, repeated it is idempotent, and a design of
  // zero or one structures has no pair to write back.
  const std::string a = "segment a depth 8 width 8\n";
  const std::string b = "segment b depth 16 width 4\n";
  const std::string c = "segment c depth 32 width 2\n";
  const struct {
    std::string text;
    std::size_t structures, pairs;
  } cases[] = {
      {"conflicts all\n", 0, 0},
      {"conflicts all\nconflicts all\n", 0, 0},
      {a + "conflicts all\n", 1, 0},
      {"conflicts all\n" + a + b + c, 3, 0},
      {a + b + "conflicts all\n" + c, 3, 1},
      {a + b + c + "conflicts all\nconflicts all\n", 3, 3},
      {a + "conflicts all\n" + b + c + "conflicts all\n", 3, 3},
      {a + b + c + "conflict a b\nconflicts all\nconflict b c\n", 3, 3},
  };
  for (const auto& [text, structures, pairs] : cases) {
    const design::DesignParseResult parsed = design::parse_design_string(text);
    ASSERT_TRUE(parsed.ok) << text << parsed.error;
    EXPECT_EQ(parsed.design.size(), structures) << text;
    EXPECT_EQ(parsed.design.num_conflicts(), pairs) << text;
    EXPECT_EQ(parsed.design.all_conflicting(),
              structures >= 2 && pairs == structures * (structures - 1) / 2)
        << text;
    const std::string written = design::design_to_string(parsed.design);
    EXPECT_EQ(written.find("conflicts all") != std::string::npos,
              parsed.design.all_conflicting())
        << written;
    check_design(text, text);
  }
}

TEST(ParserFuzz, MutatedRequestLinesNeverCrashAndRejectWithAMessage) {
  const std::vector<std::string> corpus = request_corpus();
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 1'000);
    const std::string line = mutant(corpus, rng);
    accepted += check_request(line, label(seed, line)) ? 1 : 0;
  }
  expect_both_outcomes(accepted);
}

TEST(ParserFuzz, MutatedJsonNeverCrashesAndRejectsWithAMessage) {
  const std::vector<std::string> corpus = json_corpus();
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 2'000);
    const std::string text = mutant(corpus, rng);
    accepted += check_json(text, label(seed, text)) ? 1 : 0;
  }
  expect_both_outcomes(accepted);
}

TEST(ParserFuzz, MutatedBoardTextNeverCrashesAndRejectsWithAMessage) {
  const std::vector<std::string> corpus = board_corpus();
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 3'000);
    const std::string text = mutant(corpus, rng);
    accepted += check_board(text, label(seed, text)) ? 1 : 0;
  }
  expect_both_outcomes(accepted);
}

TEST(ParserFuzz, MutatedFaultSpecsNeverCrashAndRejectWithAMessage) {
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 4'000);
    const std::string text = mutant(kFaultSpecs, rng);
    accepted += check_fault_spec(text, label(seed, text)) ? 1 : 0;
  }
  expect_both_outcomes(accepted);
}

// 19-digit values spliced into valid text: a board or design the parser
// accepts has every total and cost product in range, so the mappers
// computing them (under UBSan in the sanitizer lane) never overflow.
TEST(ParserFuzz, NineteenDigitBoardValuesOverflowNoTotal) {
  const std::vector<std::string> corpus = board_corpus();
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 5'000);
    const std::string text =
        splice_digits(corpus[rng.index(corpus.size())], rng);
    if (!check_board(text, label(seed, text))) continue;
    ++accepted;
    const arch::Board board = arch::parse_board_string(text).board;
    EXPECT_GE(board.total_bits(), 0) << label(seed, text);
    EXPECT_GE(board.total_ports(), 0) << label(seed, text);
    EXPECT_GE(board.total_banks(), 0) << label(seed, text);
    EXPECT_GE(board.total_configs(), 0) << label(seed, text);
    for (std::size_t k = 0; k < board.num_devices(); ++k) {
      EXPECT_GE(board.device_bits(k), 0) << label(seed, text);
    }
  }
  expect_both_outcomes(accepted);
}

TEST(ParserFuzz, NineteenDigitDesignValuesOverflowNoTotalOrCost) {
  const std::vector<std::string> corpus = design_corpus();
  const arch::BoardParseResult sample =
      arch::parse_board_string(read_sample("board_xcv300.txt"));
  ASSERT_TRUE(sample.ok) << sample.error;
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::Rng rng(seed + 6'000);
    const std::string text =
        splice_digits(corpus[rng.index(corpus.size())], rng);
    if (!check_design(text, label(seed, text))) continue;
    ++accepted;
    const design::Design design = design::parse_design_string(text).design;
    EXPECT_GE(design.total_bits(), 0) << label(seed, text);
    for (const design::DataStructure& ds : design.structures()) {
      for (const arch::BankType& type : sample.board.types()) {
        const mapping::CostBreakdown cost =
            mapping::assignment_cost(ds, type, mapping::PlacementPlan{});
        EXPECT_GE(cost.latency, 0.0) << label(seed, text);
        EXPECT_GE(cost.pin_delay, 0.0) << label(seed, text);
      }
    }
  }
  expect_both_outcomes(accepted);
}

}  // namespace
}  // namespace gmm
