// Plain-text serialization of designs.
//
// Format (one directive per line, '#' comments):
//
//   design <name>
//   segment <name> depth <D> width <W> [reads <R>] [writes <W>]
//           [lifetime <start> <end>]
//   conflict <name_a> <name_b>
//   conflicts all               # every pair conflicts
//   conflicts lifetimes         # derive from lifetime intervals
//
// write_design emits `conflicts all` for a complete relation
// (Design::all_conflicting) and one `conflict` line per pair otherwise,
// in the design's pair order; a complete relation therefore reads back
// in Design::set_all_conflicting's canonical order.
#pragma once

#include <iosfwd>
#include <string>

#include "design/design.hpp"

namespace gmm::design {

struct DesignParseResult {
  bool ok = false;
  std::string error;
  Design design;
};

DesignParseResult parse_design(std::istream& in);
DesignParseResult parse_design_string(const std::string& text);

void write_design(std::ostream& out, const Design& design);
std::string design_to_string(const Design& design);

}  // namespace gmm::design
