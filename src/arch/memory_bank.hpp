// Physical memory bank model (paper Section 3.1, Figure 1).
//
// A BankType describes a class of identical physical RAMs on the
// reconfigurable board: how many instances exist, how many ports each
// instance has, the selectable depth/width configurations of each port,
// the read/write latencies in clock cycles, and how many pins an access
// traverses between the processing unit and the bank (0 for on-chip RAM,
// 2 for a directly attached external bank, more for indirect paths).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gmm::arch {

/// One depth/width setting of a port ("4096x1", "256x16", ...).
struct BankConfig {
  std::int64_t depth = 0;  // number of words
  std::int64_t width = 0;  // bits per word

  [[nodiscard]] std::int64_t capacity_bits() const { return depth * width; }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BankConfig&, const BankConfig&) = default;
};

/// A type of physical memory bank; all instances of a type share these
/// parameters (the paper's core modeling assumption, which is what makes
/// detailed mapping cost-neutral).
struct BankType {
  std::string name;
  std::int64_t instances = 0;      // I_t
  std::int64_t ports = 0;          // P_t
  std::vector<BankConfig> configs; // C_t entries, constant capacity
  std::int64_t read_latency = 1;   // RL_t, clock cycles
  std::int64_t write_latency = 1;  // WL_t, clock cycles
  std::int64_t pins_traversed = 0; // T_t

  /// Capacity of one instance in bits (identical for every configuration).
  [[nodiscard]] std::int64_t capacity_bits() const {
    return configs.empty() ? 0 : configs.front().capacity_bits();
  }
  [[nodiscard]] std::int64_t num_configs() const {
    return static_cast<std::int64_t>(configs.size());
  }
  [[nodiscard]] bool multi_config() const { return configs.size() > 1; }
  [[nodiscard]] bool on_chip() const { return pins_traversed == 0; }
  /// Total ports over all instances (P_t * I_t).
  [[nodiscard]] std::int64_t total_ports() const { return ports * instances; }
  /// Total storage over all instances in bits.
  [[nodiscard]] std::int64_t total_bits() const {
    return capacity_bits() * instances;
  }
  [[nodiscard]] std::int64_t max_width() const;
  [[nodiscard]] std::int64_t max_depth() const;

  /// Validate the paper's structural assumptions: at least one config,
  /// positive sizes, power-of-two depths, constant capacity across
  /// configurations; and that depth x width and depth x ports of every
  /// configuration, instances x ports and instances x capacity fit in
  /// int64.  Returns an empty string when valid, else a message.
  [[nodiscard]] std::string validate() const;
};

}  // namespace gmm::arch
