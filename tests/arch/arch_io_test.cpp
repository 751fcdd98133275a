#include "arch/arch_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/device_catalog.hpp"

namespace gmm::arch {
namespace {

TEST(ArchIo, ParsesMinimalBoard) {
  const BoardParseResult r = parse_board_string(R"(
# a comment
board demo
banktype blockram instances 8 ports 2 rl 1 wl 1 pins 0
config 4096 1
config 256 16
end
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.board.name(), "demo");
  ASSERT_EQ(r.board.num_types(), 1u);
  EXPECT_EQ(r.board.type(0).name, "blockram");
  EXPECT_EQ(r.board.type(0).instances, 8);
  EXPECT_EQ(r.board.type(0).ports, 2);
  ASSERT_EQ(r.board.type(0).configs.size(), 2u);
  EXPECT_EQ(r.board.type(0).configs[1], (BankConfig{256, 16}));
}

TEST(ArchIo, RoundTripsPresetBoards) {
  for (const char* device : {"XCV50", "XCV1000", "EPF10K70", "EP20K400E"}) {
    const Board original = hierarchical_board(device);
    const BoardParseResult reparsed =
        parse_board_string(board_to_string(original));
    ASSERT_TRUE(reparsed.ok) << reparsed.error;
    EXPECT_EQ(reparsed.board.name(), original.name());
    ASSERT_EQ(reparsed.board.num_types(), original.num_types());
    for (std::size_t t = 0; t < original.num_types(); ++t) {
      EXPECT_EQ(reparsed.board.type(t).name, original.type(t).name);
      EXPECT_EQ(reparsed.board.type(t).instances, original.type(t).instances);
      EXPECT_EQ(reparsed.board.type(t).ports, original.type(t).ports);
      EXPECT_EQ(reparsed.board.type(t).configs, original.type(t).configs);
      EXPECT_EQ(reparsed.board.type(t).read_latency,
                original.type(t).read_latency);
      EXPECT_EQ(reparsed.board.type(t).write_latency,
                original.type(t).write_latency);
      EXPECT_EQ(reparsed.board.type(t).pins_traversed,
                original.type(t).pins_traversed);
    }
  }
}

TEST(ArchIo, RejectsUnknownDirective) {
  const BoardParseResult r = parse_board_string("frobnicate yes\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 1"), std::string::npos);
}

TEST(ArchIo, RejectsConfigOutsideBankType) {
  const BoardParseResult r = parse_board_string("config 16 8\n");
  EXPECT_FALSE(r.ok);
}

TEST(ArchIo, RejectsUnterminatedBankType) {
  const BoardParseResult r = parse_board_string(
      "banktype b instances 1 ports 1 rl 1 wl 1 pins 0\nconfig 16 8\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unterminated"), std::string::npos);
}

TEST(ArchIo, RejectsInvalidBankTypeOnEnd) {
  // Non-pow2 depth must be rejected at the 'end' marker.
  const BoardParseResult r = parse_board_string(
      "banktype b instances 1 ports 1 rl 1 wl 1 pins 0\nconfig 100 8\nend\n");
  EXPECT_FALSE(r.ok);
}

TEST(ArchIo, RejectsBadInteger) {
  const BoardParseResult r = parse_board_string(
      "banktype b instances eight ports 1 rl 1 wl 1 pins 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(ArchIo, ParsesMultiDeviceBoard) {
  const BoardParseResult r = parse_board_string(
      "board dual\n"
      "device fpga0 pins 3\n"
      "banktype ram0 instances 4 ports 2 rl 1 wl 1 pins 0\n"
      "config 1024 8\n"
      "end\n"
      "device fpga1\n"
      "banktype ram1 instances 8 ports 1 rl 1 wl 1 pins 0\n"
      "config 2048 4\n"
      "end\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.board.num_devices(), 2u);
  EXPECT_TRUE(r.board.multi_device());
  EXPECT_EQ(r.board.device(0).name, "fpga0");
  EXPECT_EQ(r.board.device(0).inter_device_pins, 3);
  EXPECT_EQ(r.board.device(1).name, "fpga1");
  EXPECT_EQ(r.board.device(1).inter_device_pins, 0);
  EXPECT_EQ(r.board.device_of_type(0), 0u);
  EXPECT_EQ(r.board.device_of_type(1), 1u);
}

TEST(ArchIo, MultiDeviceBoardRoundTrips) {
  Board board("dual");
  board.add_device({.name = "fpga0", .inter_device_pins = 3});
  BankType ram;
  ram.name = "ram0";
  ram.instances = 4;
  ram.ports = 2;
  ram.configs.push_back({1024, 8});
  board.add_bank_type(ram);
  board.add_device({.name = "empty_fpga"});  // zero banks must survive too

  const BoardParseResult r = parse_board_string(board_to_string(board));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.board.num_devices(), 2u);
  EXPECT_EQ(r.board.device(0).name, "fpga0");
  EXPECT_EQ(r.board.device(0).inter_device_pins, 3);
  EXPECT_EQ(r.board.device(1).name, "empty_fpga");
  EXPECT_TRUE(r.board.device_type_indices(1).empty());
  // Idempotence: a second trip is byte-identical.
  EXPECT_EQ(board_to_string(r.board), board_to_string(board));
}

TEST(ArchIo, SingleDeviceBoardsWriteNoDeviceLines) {
  const BoardParseResult r = parse_board_string(
      "board b\nbanktype t instances 1 ports 1 rl 1 wl 1 pins 0\n"
      "config 16 8\nend\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(board_to_string(r.board).find("device"), std::string::npos);
}

TEST(ArchIo, RejectsBadDeviceDirectives) {
  // Inside a banktype, after bank types, or with malformed pins.
  const char* bad[] = {
      "banktype t instances 1 ports 1 rl 1 wl 1 pins 0\ndevice d\n",
      "banktype t instances 1 ports 1 rl 1 wl 1 pins 0\nconfig 16 8\nend\n"
      "device late\n",
      "device d pins\n",
      "device d pins -2\n",
      "device d ports 3\n",
      "device\n",
  };
  for (const char* text : bad) {
    const BoardParseResult r = parse_board_string(text);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_FALSE(r.error.empty()) << text;
  }
}

TEST(ArchIo, RejectsProductsThatOverflowInt64) {
  // Each board is valid apart from one product (or running total) past
  // 2^63; the error names the type instead of overflowing.
  const std::string type_line =
      "banktype big instances 2 ports 2 rl 1 wl 1 pins 2\n";
  const std::vector<std::string> boards = {
      // depth x width of one configuration (the capacity)
      type_line + "config 4611686018427387904 4\nend\n",
      // depth x ports of one configuration
      "banktype big instances 1 ports 4 rl 1 wl 1 pins 2\n"
      "config 4611686018427387904 1\nend\n",
      // instances x ports
      "banktype big instances 4611686018427387904 ports 4 rl 1 wl 1 "
      "pins 2\nconfig 1 1\nend\n",
      // instances x capacity
      "banktype big instances 4611686018427387904 ports 1 rl 1 wl 1 "
      "pins 2\nconfig 4 1\nend\n",
      // the board's running total bits: 2^62 + 2^62
      "banktype first instances 1 ports 1 rl 1 wl 1 pins 2\n"
      "config 4611686018427387904 1\nend\n"
      "banktype big instances 1 ports 1 rl 1 wl 1 pins 2\n"
      "config 4611686018427387904 1\nend\n",
  };
  for (const std::string& text : boards) {
    const BoardParseResult r = parse_board_string(text);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_NE(r.error.find("big"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("overflow"), std::string::npos) << r.error;
  }
  // The largest products that still fit parse.
  const BoardParseResult fits = parse_board_string(
      "banktype big instances 1 ports 1 rl 1 wl 1 pins 2\n"
      "config 4611686018427387904 1\nend\n");
  EXPECT_TRUE(fits.ok) << fits.error;
}

}  // namespace
}  // namespace gmm::arch
