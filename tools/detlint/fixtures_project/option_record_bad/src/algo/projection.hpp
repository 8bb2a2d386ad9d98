// Mini-project fixture (option_record_bad): the constraint set, with a
// member function and a static factory that are not fields.
#pragma once

namespace fixture {

struct SimplexSet {
  double lo = 0;
  double hi = 1;

  bool feasible(int n) const { return n * lo <= 1 && n * hi >= 1; }
  static SimplexSet full() { return SimplexSet{0, 1}; }
};

}  // namespace fixture
