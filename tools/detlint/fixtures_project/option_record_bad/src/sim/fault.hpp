// Mini-project fixture (option_record_bad): `burst_len` has no
// "fault.burst_len" row and must be flagged at its own line.
#pragma once

namespace fixture {

struct FaultSpec {
  bool enabled = false;
  // detlint-expect: option-not-in-record@+1
  int burst_len = 0;
};

}  // namespace fixture
