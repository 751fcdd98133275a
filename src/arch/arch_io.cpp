#include "arch/arch_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/string_util.hpp"

namespace gmm::arch {

namespace {

using support::parse_int;
using support::split_ws;
using support::trim;

std::string line_error(int line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

/// The board totals (Board::total_bits, total_ports, total_banks and
/// total_configs) of the types parsed so far.
struct Totals {
  std::int64_t bits = 0, ports = 0, banks = 0, configs = 0;
};

/// Add a validated type to `totals`; false when a total overflows int64.
bool add_to_totals(const BankType& type, Totals& totals) {
  std::int64_t configs = 0;
  return !__builtin_add_overflow(totals.bits, type.total_bits(),
                                 &totals.bits) &&
         !__builtin_add_overflow(totals.ports, type.total_ports(),
                                 &totals.ports) &&
         !__builtin_add_overflow(totals.banks, type.instances,
                                 &totals.banks) &&
         !__builtin_mul_overflow(type.total_ports(),
                                 type.multi_config() ? type.num_configs() : 0,
                                 &configs) &&
         !__builtin_add_overflow(totals.configs, configs, &totals.configs);
}

}  // namespace

BoardParseResult parse_board(std::istream& in) {
  BoardParseResult result;
  std::string line;
  int line_no = 0;
  bool in_type = false;
  BankType current;
  Totals totals;

  const auto fail = [&result](int line_number, const std::string& message) {
    result.ok = false;
    result.error = line_error(line_number, message);
    return result;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens.front();

    if (keyword == "board") {
      if (tokens.size() != 2) return fail(line_no, "board expects a name");
      result.board.set_name(tokens[1]);
    } else if (keyword == "device") {
      if (in_type) return fail(line_no, "device inside banktype");
      if (result.board.num_types() > 0 &&
          !result.board.has_explicit_devices()) {
        return fail(line_no, "device directives must precede bank types");
      }
      if (tokens.size() != 2 && tokens.size() != 4) {
        return fail(line_no, "device expects: name [pins <P>]");
      }
      BoardDevice device;
      device.name = tokens[1];
      if (tokens.size() == 4) {
        if (tokens[2] != "pins" ||
            !parse_int(tokens[3], device.inter_device_pins) ||
            device.inter_device_pins < 0) {
          return fail(line_no, "device expects: name [pins <P>]");
        }
      }
      result.board.add_device(std::move(device));
    } else if (keyword == "banktype") {
      if (in_type) return fail(line_no, "nested banktype (missing 'end'?)");
      if (tokens.size() != 12) {
        return fail(line_no,
                    "banktype expects: name instances <I> ports <P> rl <RL> "
                    "wl <WL> pins <T>");
      }
      current = BankType{};
      current.name = tokens[1];
      std::int64_t value = 0;
      for (std::size_t k = 2; k + 1 < tokens.size(); k += 2) {
        if (!parse_int(tokens[k + 1], value)) {
          return fail(line_no, "bad integer '" + tokens[k + 1] + "'");
        }
        if (tokens[k] == "instances") {
          current.instances = value;
        } else if (tokens[k] == "ports") {
          current.ports = value;
        } else if (tokens[k] == "rl") {
          current.read_latency = value;
        } else if (tokens[k] == "wl") {
          current.write_latency = value;
        } else if (tokens[k] == "pins") {
          current.pins_traversed = value;
        } else {
          return fail(line_no, "unknown banktype field '" + tokens[k] + "'");
        }
      }
      in_type = true;
    } else if (keyword == "config") {
      if (!in_type) return fail(line_no, "config outside banktype");
      if (tokens.size() != 3) return fail(line_no, "config expects depth width");
      BankConfig config;
      if (!parse_int(tokens[1], config.depth) ||
          !parse_int(tokens[2], config.width)) {
        return fail(line_no, "bad config dimensions");
      }
      current.configs.push_back(config);
    } else if (keyword == "end") {
      if (!in_type) return fail(line_no, "'end' without banktype");
      const std::string problem = current.validate();
      if (!problem.empty()) return fail(line_no, problem);
      if (!add_to_totals(current, totals)) {
        return fail(line_no, current.name + ": board totals overflow int64");
      }
      result.board.add_bank_type(current);
      in_type = false;
    } else {
      return fail(line_no, "unknown directive '" + keyword + "'");
    }
  }
  if (in_type) return fail(line_no, "unterminated banktype at end of input");
  result.ok = true;
  return result;
}

BoardParseResult parse_board_string(const std::string& text) {
  std::istringstream in(text);
  return parse_board(in);
}

namespace {

void write_bank_type(std::ostream& out, const BankType& t) {
  out << "banktype " << t.name << " instances " << t.instances << " ports "
      << t.ports << " rl " << t.read_latency << " wl " << t.write_latency
      << " pins " << t.pins_traversed << "\n";
  for (const BankConfig& c : t.configs) {
    out << "config " << c.depth << " " << c.width << "\n";
  }
  out << "end\n";
}

}  // namespace

void write_board(std::ostream& out, const Board& board) {
  // A nameless board writes no 'board' line at all (parse leaves the name
  // empty), so write -> parse round-trips exactly; the old "unnamed"
  // placeholder silently renamed such boards on the way through.
  if (!board.name().empty()) out << "board " << board.name() << "\n";
  if (!board.has_explicit_devices()) {
    // Single implicit device: the pre-device format, byte for byte.
    for (const BankType& t : board.types()) write_bank_type(out, t);
    return;
  }
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    const BoardDevice device = board.device(k);
    out << "device " << device.name;
    if (device.inter_device_pins > 0) {
      out << " pins " << device.inter_device_pins;
    }
    out << "\n";
    for (const std::size_t t : board.device_type_indices(k)) {
      write_bank_type(out, board.type(t));
    }
  }
}

std::string board_to_string(const Board& board) {
  std::ostringstream out;
  write_board(out, board);
  return out.str();
}

}  // namespace gmm::arch
