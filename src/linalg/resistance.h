// Effective-resistance computation on weighted resistor networks.
//
// This is the numerical core of the paper's "equivalent distance" (§3):
// every link on a routing-supplied shortest path becomes a 1 Ω resistor and
// the equivalent distance between two switches is the effective resistance
// between the corresponding terminals.
#pragma once

#include <cstddef>
#include <vector>

namespace commsched::linalg {

/// One resistor between nodes `a` and `b` with conductance 1/resistance.
struct Resistor {
  std::size_t a = 0;
  std::size_t b = 0;
  double resistance = 1.0;
};

/// A resistor network over nodes 0..node_count-1. Parallel resistors are
/// allowed (conductances add); self-loops are rejected.
class ResistorNetwork {
 public:
  explicit ResistorNetwork(std::size_t node_count);

  /// Adds a resistor; resistance must be positive and a != b.
  void Add(std::size_t a, std::size_t b, double resistance = 1.0);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] const std::vector<Resistor>& resistors() const { return resistors_; }

  /// Effective resistance between s and t.  Requires that s and t are in the
  /// same connected component (checked; throws ContractError otherwise).
  /// Solves the grounded Laplacian system L' v = e_s with node t removed.
  [[nodiscard]] double EffectiveResistance(std::size_t s, std::size_t t) const;

  /// True if s and t are connected through resistors.
  [[nodiscard]] bool Connected(std::size_t s, std::size_t t) const;

 private:
  /// Per node: whether it is connected to s through resistors.
  [[nodiscard]] std::vector<bool> ReachableFrom(std::size_t s) const;

  std::size_t node_count_;
  std::vector<Resistor> resistors_;
};

}  // namespace commsched::linalg
