#include "arch/memory_bank.hpp"

#include <algorithm>

#include "support/arithmetic.hpp"

namespace gmm::arch {

std::string BankConfig::to_string() const {
  return std::to_string(depth) + "x" + std::to_string(width);
}

std::int64_t BankType::max_width() const {
  std::int64_t w = 0;
  for (const BankConfig& c : configs) w = std::max(w, c.width);
  return w;
}

std::int64_t BankType::max_depth() const {
  std::int64_t d = 0;
  for (const BankConfig& c : configs) d = std::max(d, c.depth);
  return d;
}

std::string BankType::validate() const {
  if (name.empty()) return "bank type without a name";
  if (instances <= 0) return name + ": instances must be positive";
  if (ports <= 0) return name + ": ports must be positive";
  if (configs.empty()) return name + ": at least one configuration required";
  if (read_latency < 0 || write_latency < 0) {
    return name + ": negative latency";
  }
  if (pins_traversed < 0) return name + ": negative pin count";
  // Every product the mappers form from a type must fit in int64: text
  // from the wire can carry any 19-digit value.
  std::int64_t product = 0;
  for (const BankConfig& c : configs) {
    if (c.depth <= 0 || c.width <= 0) {
      return name + ": configuration " + c.to_string() +
             " has a non-positive dimension";
    }
    if (__builtin_mul_overflow(c.depth, c.width, &product) ||
        __builtin_mul_overflow(c.depth, ports, &product)) {
      return name + ": configuration " + c.to_string() +
             " overflows int64 in depth x width or depth x ports";
    }
  }
  const std::int64_t capacity = configs.front().capacity_bits();
  if (__builtin_mul_overflow(instances, ports, &product) ||
      __builtin_mul_overflow(instances, capacity, &product)) {
    return name + ": instances x ports or instances x capacity overflows "
                  "int64";
  }
  for (const BankConfig& c : configs) {
    if (!support::is_pow2(c.depth)) {
      return name + ": configuration " + c.to_string() +
             " depth is not a power of two (required by the pow-2 "
             "fragment rounding of consumed_ports)";
    }
    if (!support::is_pow2(c.width)) {
      return name + ": configuration " + c.to_string() +
             " width is not a power of two (required by the buddy block "
             "placement of detailed mapping)";
    }
    if (c.capacity_bits() != capacity) {
      return name + ": configuration " + c.to_string() +
             " breaks the constant-capacity assumption";
    }
  }
  for (std::size_t a = 0; a < configs.size(); ++a) {
    for (std::size_t b = a + 1; b < configs.size(); ++b) {
      if (configs[a].width == configs[b].width) {
        return name + ": duplicate configuration width " +
               std::to_string(configs[a].width);
      }
    }
  }
  return {};
}

}  // namespace gmm::arch
