// Self-tests of the benchmark's own pieces: the percentile helper and its
// sample counts, the open-loop schedule, the wire-placement decoder, the
// traffic mutator and the span recorder.  run.py runs this binary before
// every measurement; any failed check exits non-zero.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.hpp"
#include "mapping/pipeline.hpp"
#include "service/json.hpp"
#include "workload/table3_suite.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const Percentile p50 = percentile(hundred, 0.50);
  CHECK(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
  const Percentile p90 = percentile(hundred, 0.90);
  CHECK(p90.value == 90 && p90.beyond == 10);
  const Percentile p99 = percentile(hundred, 0.99);
  CHECK(p99.value == 99 && p99.beyond == 1);
  const Percentile max = percentile(hundred, 1.0);
  CHECK(max.value == 100 && max.beyond == 0);
  // Nearest rank on a small set: p90 of 9 samples is the largest.
  const Percentile small = percentile({3, 1, 2, 9, 8, 7, 6, 5, 4}, 0.90);
  CHECK(small.value == 9 && small.samples == 9 && small.beyond == 0);
  const Percentile one = percentile({7.5}, 0.5);
  CHECK(one.value == 7.5 && one.samples == 1 && one.beyond == 0);
  const Percentile none = percentile({}, 0.5);
  CHECK(none.samples == 0 && none.value == 0.0);
  CHECK(median({4, 1, 3}) == 3);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

void test_schedule() {
  const auto a = open_loop_schedule(7, 1000.0, 20.0, 0.6, 0.2);
  const auto b = open_loop_schedule(7, 1000.0, 20.0, 0.6, 0.2);
  const auto c = open_loop_schedule(8, 1000.0, 20.0, 0.6, 0.2);
  CHECK(a.size() == b.size());
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].cls == b[i].cls;
  }
  CHECK(same);
  CHECK(c.size() != a.size() || c.front().due_s != a.front().due_s);
  // Poisson count: 20000 expected, sd ~141.
  CHECK(std::abs(static_cast<double>(a.size()) - 20000.0) < 5 * 141.0);
  bool increasing = true;
  std::size_t hits = 0, nears = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    increasing &= a[i].due_s > 0.0 && a[i].due_s < 20.0 &&
                  (i == 0 || a[i].due_s >= a[i - 1].due_s);
    hits += a[i].cls == RequestClass::kHit;
    nears += a[i].cls == RequestClass::kNear;
  }
  CHECK(increasing);
  const double n = static_cast<double>(a.size());
  CHECK(std::abs(static_cast<double>(hits) / n - 0.6) < 0.02);
  CHECK(std::abs(static_cast<double>(nears) / n - 0.2) < 0.02);
  CHECK(open_loop_schedule(1, 0.0, 5.0, 0.6, 0.2).empty());
}

/// Wire placements round-tripped through a response line, as a client
/// receives them.
std::vector<gmm::service::PlacementEntry> round_trip(
    const gmm::design::Design& design, const gmm::arch::Board& board,
    const gmm::mapping::DetailedMapping& detailed) {
  gmm::service::Response response;
  response.id = "t";
  response.method = "map";
  response.status = gmm::service::ResponseStatus::kOk;
  response.has_result = true;
  response.solve_status = "optimal";
  response.placements = to_wire(design, board, detailed);
  gmm::service::Response decoded;
  const auto parsed = gmm::service::parse_json(response.to_line());
  if (!parsed.ok ||
      !gmm::service::Response::from_json(parsed.value, decoded)) {
    return {};
  }
  return decoded.placements;
}

void test_decoder() {
  for (const int index : {1, 4, 8}) {
    const auto& point =
        gmm::workload::table3_points()[static_cast<std::size_t>(index - 1)];
    const gmm::workload::Table3Instance inst =
        gmm::workload::build_instance(point, 2001);
    const gmm::mapping::PipelineResult solved =
        gmm::mapping::map_pipeline(inst.design, inst.board);
    CHECK(solved.detailed.success);
    const gmm::mapping::CostTable table(inst.design, inst.board);
    auto wire = round_trip(inst.design, inst.board, solved.detailed);
    CHECK(wire.size() == solved.detailed.fragments.size());

    gmm::mapping::GlobalAssignment assignment;
    gmm::mapping::DetailedMapping detailed;
    CHECK(decode_placements(inst.design, inst.board, table, wire, assignment,
                            detailed)
              .empty());
    CHECK(assignment.type_of == solved.assignment.type_of);
    bool same = detailed.fragments.size() == solved.detailed.fragments.size();
    for (std::size_t i = 0; same && i < detailed.fragments.size(); ++i) {
      const auto& x = detailed.fragments[i];
      const auto& y = solved.detailed.fragments[i];
      same = x.ds == y.ds && x.type == y.type && x.instance == y.instance &&
             x.config_index == y.config_index && x.kind == y.kind &&
             x.ports == y.ports && x.first_port == y.first_port &&
             x.offset_bits == y.offset_bits && x.block_bits == y.block_bits &&
             x.words_covered == y.words_covered &&
             x.bits_covered == y.bits_covered;
    }
    CHECK(same);
    CHECK(check_answer(inst.design, inst.board, table, assignment, detailed,
                       solved.assignment.objective)
              .empty());
    // A wrong objective, a moved block, a dropped fragment and an unknown
    // segment are all caught.
    CHECK(!check_answer(inst.design, inst.board, table, assignment, detailed,
                        solved.assignment.objective * (1.0 + 1e-4))
               .empty());
    auto moved = wire;
    moved[0].offset_bits += moved[0].block_bits / 2 + 1;
    const bool moved_caught =
        !decode_placements(inst.design, inst.board, table, moved, assignment,
                           detailed)
             .empty() ||
        !check_answer(inst.design, inst.board, table, assignment, detailed,
                      solved.assignment.objective)
             .empty();
    CHECK(moved_caught);
    auto dropped = wire;
    dropped.pop_back();
    const bool dropped_caught =
        !decode_placements(inst.design, inst.board, table, dropped,
                           assignment, detailed)
             .empty() ||
        !check_answer(inst.design, inst.board, table, assignment, detailed,
                      solved.assignment.objective)
             .empty();
    CHECK(dropped_caught);
    auto renamed = wire;
    renamed[0].segment = "no-such-segment";
    CHECK(!decode_placements(inst.design, inst.board, table, renamed,
                             assignment, detailed)
               .empty());
  }
}

void test_mutate_traffic() {
  const auto& point = gmm::workload::table3_points()[1];
  const gmm::workload::Table3Instance inst =
      gmm::workload::build_instance(point, 2001);
  gmm::design::Design mutant;
  const auto pinned = mutate_traffic(inst.design, 42, 2, mutant);
  CHECK(pinned.size() == inst.design.size() - 2);
  CHECK(mutant.size() == inst.design.size());
  CHECK(mutant.num_conflicts() == inst.design.num_conflicts());
  int traffic_changed = 0;
  for (std::size_t d = 0; d < mutant.size(); ++d) {
    const auto& a = inst.design.at(d);
    const auto& b = mutant.at(d);
    CHECK(a.depth == b.depth && a.width == b.width && a.name == b.name);
    if (a.effective_reads() != b.effective_reads() ||
        a.effective_writes() != b.effective_writes()) {
      ++traffic_changed;
    }
  }
  CHECK(traffic_changed == 2);
  for (const std::size_t d : pinned) {
    CHECK(inst.design.at(d).effective_reads() ==
          mutant.at(d).effective_reads());
  }
  gmm::design::Design again;
  CHECK(mutate_traffic(inst.design, 42, 2, again) == pinned);
}

void test_trace() {
  Trace trace(true);
  {
    Scope outer(trace, "outer", 1);
    Scope inner(trace, "inner", 1);
  }
  const auto totals = trace.totals();
  CHECK(totals.at("outer").second == 1 && totals.at("inner").second == 1);
  CHECK(totals.at("outer").first >= totals.at("inner").first);
  const auto self = trace.self_seconds();
  CHECK(std::abs(self.at("outer") + totals.at("inner").first -
                 totals.at("outer").first) < 1e-9);
  Trace off(false);
  { Scope ignored(off, "x"); }
  CHECK(off.totals().empty());
}

// The scale takes a run's timings to the reference host: 1 without
// samples, and reference / p10 of the probe times once sampled.
void test_host_speed() {
  HostSpeed speed;
  CHECK(speed.scale() == 1.0);
  for (int i = 0; i < 20; ++i) speed.sample();
  CHECK(speed.samples() == 20);
  CHECK(speed.probe_p10_ms() > 0.0);
  CHECK(std::abs(speed.scale() * speed.probe_p10_ms() -
                 HostSpeed::kReferenceMs) < 1e-12);
}

}  // namespace

int main() {
  test_percentile();
  test_schedule();
  test_decoder();
  test_mutate_traffic();
  test_trace();
  test_host_speed();
  if (failures == 0) std::fprintf(stderr, "perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
