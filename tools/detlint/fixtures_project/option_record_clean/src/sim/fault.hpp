// Mini-project fixture (option_record_clean): a fault spec whose every
// field has a "fault."-prefixed row in the options record.
#pragma once

namespace fixture {

struct FaultSpec {
  bool enabled = false;
  double drop_prob = 0;

  void validate() const;
};

}  // namespace fixture
