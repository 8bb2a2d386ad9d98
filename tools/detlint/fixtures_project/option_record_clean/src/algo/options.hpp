// Mini-project fixture (option_record_clean): every field of the options
// struct is a row of the record or an exempt entry with a reason. The
// case must lint clean.
#pragma once

#include <string>
#include <vector>

#include "algo/projection.hpp"
#include "sim/fault.hpp"

namespace fixture {

struct TrainOptions {
  int rounds = 1;
  int tau1 = 1;
  std::vector<int> taus;
  double eta_w = 0.01;
  SimplexSet p_set;
  FaultSpec fault;
  std::string resume_from;
};

}  // namespace fixture
