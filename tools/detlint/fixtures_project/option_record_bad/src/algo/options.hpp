// Mini-project fixture (option_record_bad): `momentum` is neither a row
// of the record nor exempt, so a resume could change it unnoticed; it
// must be flagged at its own line.
#pragma once

#include <string>

#include "algo/projection.hpp"
#include "sim/fault.hpp"

namespace fixture {

struct TrainOptions {
  int rounds = 1;
  // detlint-expect: option-not-in-record@+1
  double momentum = 0.9;
  SimplexSet p_set;
  FaultSpec fault;
  std::string resume_from;
};

}  // namespace fixture
