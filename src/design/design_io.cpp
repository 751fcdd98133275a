#include "design/design_io.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "support/string_util.hpp"

namespace gmm::design {

namespace {

using support::parse_int;
using support::split_ws;

}  // namespace

DesignParseResult parse_design(std::istream& in) {
  DesignParseResult result;
  std::map<std::string, std::size_t> by_name;
  std::string line;
  int line_no = 0;
  std::int64_t total_bits = 0;  // Design::total_bits of the segments so far

  const auto fail = [&result](int line_number, const std::string& message) {
    result.ok = false;
    result.error =
        "line " + std::to_string(line_number) + ": " + message;
    return result;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens.front();

    if (keyword == "design") {
      if (tokens.size() != 2) return fail(line_no, "design expects a name");
      result.design.set_name(tokens[1]);
    } else if (keyword == "segment") {
      if (tokens.size() < 6) {
        return fail(line_no,
                    "segment expects: name depth <D> width <W> "
                    "[reads <R>] [writes <W>] [lifetime <s> <e>]");
      }
      DataStructure ds;
      ds.name = tokens[1];
      if (by_name.contains(ds.name)) {
        return fail(line_no, "duplicate segment '" + ds.name + "'");
      }
      std::size_t k = 2;
      while (k < tokens.size()) {
        const std::string& field = tokens[k];
        std::int64_t value = 0;
        if (field == "lifetime") {
          if (k + 2 >= tokens.size()) {
            return fail(line_no, "lifetime expects start and end");
          }
          Lifetime lt;
          if (!parse_int(tokens[k + 1], lt.start) ||
              !parse_int(tokens[k + 2], lt.end) || lt.end <= lt.start) {
            return fail(line_no, "bad lifetime interval");
          }
          ds.lifetime = lt;
          k += 3;
          continue;
        }
        if (k + 1 >= tokens.size() || !parse_int(tokens[k + 1], value)) {
          return fail(line_no, "bad value for field '" + field + "'");
        }
        if (field == "depth") {
          ds.depth = value;
        } else if (field == "width") {
          ds.width = value;
        } else if (field == "reads") {
          ds.reads = value;
        } else if (field == "writes") {
          ds.writes = value;
        } else {
          return fail(line_no, "unknown segment field '" + field + "'");
        }
        k += 2;
      }
      if (ds.depth <= 0 || ds.width <= 0) {
        return fail(line_no, "segment needs positive depth and width");
      }
      std::int64_t bits = 0;
      if (__builtin_mul_overflow(ds.depth, ds.width, &bits) ||
          __builtin_add_overflow(total_bits, bits, &total_bits)) {
        return fail(line_no, ds.name +
                                 ": depth x width or the design's total "
                                 "bits overflow int64");
      }
      // Copy the name out before the move: the assignment's right side is
      // evaluated first (C++17), which would gut ds.name.
      const std::string segment_name = ds.name;
      by_name[segment_name] = result.design.add(std::move(ds));
    } else if (keyword == "conflict") {
      if (tokens.size() != 3) {
        return fail(line_no, "conflict expects two segment names");
      }
      const auto a = by_name.find(tokens[1]);
      const auto b = by_name.find(tokens[2]);
      if (a == by_name.end() || b == by_name.end()) {
        return fail(line_no, "conflict references unknown segment");
      }
      if (a->second == b->second) {
        return fail(line_no, "segment cannot conflict with itself");
      }
      result.design.add_conflict(a->second, b->second);
    } else if (keyword == "conflicts") {
      if (tokens.size() != 2) {
        return fail(line_no, "conflicts expects 'all' or 'lifetimes'");
      }
      if (tokens[1] == "all") {
        result.design.set_all_conflicting();
      } else if (tokens[1] == "lifetimes") {
        result.design.derive_conflicts_from_lifetimes();
      } else {
        return fail(line_no, "conflicts expects 'all' or 'lifetimes'");
      }
    } else {
      return fail(line_no, "unknown directive '" + keyword + "'");
    }
  }
  result.ok = true;
  return result;
}

DesignParseResult parse_design_string(const std::string& text) {
  std::istringstream in(text);
  return parse_design(in);
}

void write_design(std::ostream& out, const Design& design) {
  // Nameless designs omit the 'design' line so the round-trip is exact
  // (see write_board for the same rule).
  if (!design.name().empty()) out << "design " << design.name() << "\n";
  for (const DataStructure& ds : design.structures()) {
    out << "segment " << ds.name << " depth " << ds.depth << " width "
        << ds.width;
    if (ds.reads > 0) out << " reads " << ds.reads;
    if (ds.writes > 0) out << " writes " << ds.writes;
    if (ds.lifetime.has_value()) {
      out << " lifetime " << ds.lifetime->start << " " << ds.lifetime->end;
    }
    out << "\n";
  }
  // A complete relation is one line, not n(n-1)/2: the paper's designs
  // are all-conflicting, and pairwise they dominate a request's size.
  if (design.all_conflicting()) {
    out << "conflicts all\n";
    return;
  }
  for (const auto& [a, b] : design.conflict_pairs()) {
    out << "conflict " << design.at(a).name << " " << design.at(b).name
        << "\n";
  }
}

std::string design_to_string(const Design& design) {
  std::ostringstream out;
  write_design(out, design);
  return out.str();
}

}  // namespace gmm::design
