#include "net/network_model.hpp"

#include <stdexcept>
#include <string>

namespace dpjit::net {

std::string_view to_string(NetworkMode mode) {
  switch (mode) {
    case NetworkMode::kBottleneck: return "bottleneck";
    case NetworkMode::kFluidFair: return "fluid-fair";
    case NetworkMode::kQuantisedFair: return "quantised-fair";
  }
  throw std::invalid_argument("to_string: unknown NetworkMode");
}

NetworkMode parse_network_mode(std::string_view name) {
  if (name == "bottleneck") return NetworkMode::kBottleneck;
  if (name == "fluid-fair" || name == "fair-sharing") return NetworkMode::kFluidFair;
  if (name == "quantised-fair") return NetworkMode::kQuantisedFair;
  throw std::invalid_argument("parse_network_mode: unknown mode '" + std::string(name) +
                              "' (expected bottleneck | fluid-fair | quantised-fair)");
}

}  // namespace dpjit::net
